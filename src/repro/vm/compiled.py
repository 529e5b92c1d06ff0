"""Compiled methods and sampling.

JxVM mirrors Jikes RVM's compile-only model (paper §3.2.1):

* every method has exactly one valid *general* compiled method at a time;
* recompilation replaces it and patches every table that referenced it
  (class TIB, subclass TIBs, special TIBs, JTOC);
* a mutable method can additionally have one *special* compiled method
  per hot state, generated when the general method is recompiled at the
  top optimization level (paper Fig. 5);
* sampling information lives on the :class:`MethodSamples` object owned
  by the method — shared by the general and all special compiled methods,
  so specialization does not dilute hotness (paper §3.2.3, last
  paragraph).

Execution tiers:

====== ============================== ===================================
level  class                          engine
====== ============================== ===================================
opt0   :class:`BaselineCompiled`      bytecode interpreter
opt1   :class:`OptCompiled`           generated Python code (opt1 passes,
                                      back-edge ticks)
opt2   :class:`OptCompiled`           generated Python code (opt2 passes)
====== ============================== ===================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.vm.adaptive import ENTRY_TICKS, NEVER
from repro.vm.interpreter import interpret_quick

if TYPE_CHECKING:  # pragma: no cover
    from repro.bytecode.classfile import MethodInfo

__all__ = [
    # Re-exported for existing importers; the single definitions live in
    # repro.vm.adaptive (see AdaptiveConfig.ENTRY_TICKS).
    "NEVER",
    "ENTRY_TICKS",
    "MethodSamples",
    "CompiledMethod",
    "BaselineCompiled",
    "OptCompiled",
]


class MethodSamples:
    """Hotness counters for one source method (shared across versions)."""

    __slots__ = ("ticks", "threshold", "invocations")

    def __init__(self, threshold: int = NEVER) -> None:
        self.ticks = 0
        self.invocations = 0
        self.threshold = threshold


class CompiledMethod:
    """Base class for one executable version of a method."""

    opt_level = -1

    def __init__(self, rm: Any, specialized_state: Any = None,
                 code_size_bytes: int = 0) -> None:
        self.rm = rm
        self.specialized_state = specialized_state
        self.code_size_bytes = code_size_bytes

    @property
    def is_special(self) -> bool:
        return self.specialized_state is not None

    def invoke(self, vm: Any, args: list[Any]) -> Any:
        raise NotImplementedError

    def describe(self) -> str:
        tag = (
            f" specialized[{self.specialized_state}]"
            if self.is_special
            else ""
        )
        return f"{self.rm.info.qualified_name}@opt{self.opt_level}{tag}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class BaselineCompiled(CompiledMethod):
    """opt0: directly interprets the method's bytecode."""

    opt_level = 0

    def __init__(self, rm: Any) -> None:
        # Model baseline code size as proportional to bytecode length;
        # baseline code is excluded from the Fig. 10 opt-code-size metric.
        super().__init__(rm, code_size_bytes=len(rm.info.code) * 4)

    def invoke(self, vm: Any, args: list[Any]) -> Any:
        rm = self.rm
        samples = rm.samples
        samples.invocations += 1
        samples.ticks += ENTRY_TICKS
        if samples.ticks >= samples.threshold:
            vm.adaptive.on_hot(rm)
        if not rm.quick_tried:
            # First interpreted call: quicken and validate the body now.
            quickener = vm.quickener
            if quickener is not None:
                quickener.quicken(rm)
        tel = vm.telemetry
        if tel is not None and tel.enabled:
            # Interpreter-tick accounting: entry ticks here, backedge
            # ticks as the delta accumulated while interpreting.
            tel.count("dispatch.opt0")
            before = samples.ticks
            result = interpret_quick(vm, rm, args)
            tel.count("interp.ticks",
                      ENTRY_TICKS + samples.ticks - before)
        else:
            result = interpret_quick(vm, rm, args)
        hook = rm.ctor_exit_hook
        if hook is not None:
            hook(vm, args[0])
        return result


class OptCompiled(CompiledMethod):
    """opt1/opt2: runs an executor produced by the optimizing compiler.

    The executor signature is ``executor(vm, args) -> value``.
    """

    def __init__(
        self,
        rm: Any,
        executor: Callable[[Any, list[Any]], Any],
        opt_level: int,
        specialized_state: Any = None,
        code_size_bytes: int = 0,
        ir: Any = None,
        source_text: str = "",
    ) -> None:
        super().__init__(rm, specialized_state, code_size_bytes)
        self.executor = executor
        self.opt_level = opt_level
        self.ir = ir
        self.source_text = source_text
        # Final-tier direct dispatch: a method compiled after its
        # promotion threshold was retired (NEVER), with no constructor
        # hook, needs neither sampling nor post-processing — its invoke
        # can be the executor itself, saving one Python frame per call.
        # (VM stack-trace annotation for this frame is skipped; callers
        # still annotate theirs.)
        if rm.samples.threshold == NEVER and rm.ctor_exit_hook is None:
            self.invoke = executor  # type: ignore[method-assign]

    def invoke(self, vm: Any, args: list[Any]) -> Any:
        rm = self.rm
        samples = rm.samples
        # Final-tier fast path: once no further promotion is possible,
        # skip the sampling counters (call counts stop accumulating at
        # the final tier; profiling always runs on the baseline tier).
        if samples.threshold != NEVER:
            samples.invocations += 1
            samples.ticks += ENTRY_TICKS
            if samples.ticks >= samples.threshold:
                vm.adaptive.on_hot(rm)
        tel = vm.telemetry
        if tel is not None and tel.enabled:
            tel.count(f"dispatch.opt{self.opt_level}")
        try:
            result = self.executor(vm, args)
        except Exception as exc:  # annotate the VM stack trace
            self._annotate(exc)
            raise
        hook = rm.ctor_exit_hook
        if hook is not None:
            hook(vm, args[0])
        return result

    def _annotate(self, exc: Exception) -> None:
        from repro.vm.interpreter import JxStackTrace
        from repro.vm.values import VMRuntimeError

        frame = f"{self.rm.info.qualified_name} (opt{self.opt_level})"
        if isinstance(exc, JxStackTrace):
            exc.frames.append(frame)
        elif isinstance(exc, VMRuntimeError):
            raise JxStackTrace(exc, [frame]) from exc
