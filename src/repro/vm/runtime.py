"""The JxVM facade.

One :class:`VM` owns a linked program, the adaptive optimization system,
the optimizing compiler, the JTOC/heap/TIB structures, and — when a
:class:`~repro.mutation.plan.MutationPlan` is supplied — the dynamic
class mutation manager.  It is the single entry point users need::

    from repro import compile_source, VM

    unit = compile_source(source)
    vm = VM(unit)
    result = vm.run()
    print(result.output)

A ProgramUnit carries link state in its instructions, so each VM needs a
freshly compiled unit.

A VM's state is explicitly split into two layers (the foundation of the
``repro.server`` multi-session code space):

* the **program world** (:meth:`VM._build_program_world`) — linked
  classes, JTOC layout + method cells, TIBs, compiled code, quickened
  bodies, the mutation manager and its hooks, the opt compiler, the
  compile cache.  Once built (and, for serving, frozen by
  :class:`repro.server.CodeSpace`), it is immutable program structure
  that any number of sessions can share;
* **session state** (:meth:`VM._init_session_state`) — heap accounting,
  the intrinsic context (output buffer + RNG), static-field *values*,
  mutation stats, telemetry sink, and the ``<clinit>``-ran flag.  This
  is everything one executing tenant mutates; a
  :class:`repro.server.Session` owns exactly this set privately while
  borrowing the world.

A solo VM is simply both layers in one object, built back-to-back.
"""

from __future__ import annotations

import os
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Any

from repro.bytecode.classfile import ProgramUnit
from repro.telemetry.core import maybe as _tel_maybe
from repro.vm import shapes
from repro.vm.adaptive import AdaptiveConfig, AdaptiveSystem, CompileStats
from repro.vm.heap import HeapStats
from repro.vm.installer import CodeInstaller
from repro.vm.intrinsics import IntrinsicContext
from repro.vm.linker import Linker, RuntimeMethod, static_initializers
from repro.vm.values import VMRuntimeError

#: Jx recursion maps onto Python recursion; give deep workloads room.
_MIN_RECURSION_LIMIT = 20000


def _osr_default() -> bool:
    """On-stack replacement defaults on; ``JX_OSR=0`` disables it."""
    return os.environ.get("JX_OSR", "1") != "0"


def _tv_default() -> bool:
    """Translation validation defaults on; ``JX_TV=0`` disables."""
    return os.environ.get("JX_TV", "1") != "0"


@dataclass
class VMConfig:
    """VM-level execution tunables (the adaptive system has its own
    :class:`~repro.vm.adaptive.AdaptiveConfig`)."""

    #: Rewrite interpreted bytecode into quickened forms with TIB-keyed
    #: inline caches and fused superinstructions
    #: (:mod:`repro.bytecode.quicken`).  Off, the interpreter runs every
    #: method's pristine bytecode — the reference the differential
    #: tests and jxbench's reference engine compare against.
    quicken: bool = True
    #: On-stack replacement (:mod:`repro.vm.osr`): transfer running
    #: interpreter frames into compiled code at hot loop back-edges, and
    #: bail compiled specialized frames back to the interpreter when a
    #: TIB swap invalidates their speculation mid-frame.  Off, frames
    #: finish in the tier they started in (promotion waits for the next
    #: invocation) and specialized code runs unguarded, exactly as
    #: before.
    osr: bool = field(default_factory=_osr_default)
    #: Inert: benchmarks/jxbench/protocol.py:189-190 still passes it.
    spec_share: bool = False
    #: Inert: benchmarks/jxbench/protocol.py:189-190 still passes it.
    memo: bool = False
    #: Inert: benchmarks/jxbench/protocol.py:189 still passes it.
    shapes: bool = False
    #: Translation validation (:mod:`repro.analysis.tv`): prove every
    #: transformed code surface (quickened/fused bodies, OSR
    #: continuation entries) observationally equivalent to its pristine
    #: source before it is allowed to run; anything unprovable is
    #: downgraded (left unquickened, permanent OSR miss) instead of
    #: trusted.  Off, transformers are trusted exactly as before.
    tv: bool = field(default_factory=_tv_default)


@dataclass
class RunResult:
    """Outcome of one entry-point execution."""

    value: Any
    output: str
    wall_seconds: float
    compile_seconds: float


@dataclass
class VMStats:
    """Point-in-time snapshot of a VM's accounting."""

    heap: HeapStats = field(default_factory=HeapStats)
    #: The single source of truth for TIB-pointer swaps: every swap path
    #: (the reeval closures and the opt2 inline fast path) bumps this
    #: field.
    tib_swaps: int = 0
    special_tibs_created: int = 0
    #: Specialized method versions compiled, one per hot state of each
    #: mutable method recompiled at opt2.
    specials_compiled: int = 0
    #: Inert, always 0: benchmarks/jxbench/protocol.py:231 reads it.
    specials_shared: int = 0
    #: Inert, always 0: benchmarks/jxbench/protocol.py:229 reads it.
    swaps_coalesced: int = 0
    #: Mutable-class plans detached by the specialization-safety audit
    #: (repro.analysis.specsafety) because a state-field write could not
    #: be proven hooked; their objects keep the class TIB.
    plans_downgraded: int = 0
    #: On-stack replacements: interpreter frames transferred into
    #: compiled code at a hot loop back-edge.
    osr_enters: int = 0
    #: Mid-frame deopts: specialized frames bailed back to the
    #: interpreter after a TIB swap invalidated their speculation.
    osr_deopts: int = 0
    #: OSR continuations whose compile raised; each such frame kept
    #: interpreting.  Counted with telemetry off too.
    osr_compile_failures: int = 0
    #: Transformed bodies run through the translation validator
    #: (repro.analysis.tv): quickened methods and OSR entries.
    tv_bodies_validated: int = 0
    #: Individual unprovable facts the validator reported.
    tv_findings: int = 0
    #: Surfaces the validator refused to run (refused quickened bodies,
    #: rejected OSR entries).
    tv_downgrades: int = 0


class VM:
    """A JxVM instance executing one linked program."""

    def __init__(
        self,
        program: ProgramUnit,
        mutation_plan: Any = None,
        adaptive_config: AdaptiveConfig | None = None,
        seed: int = 42,
        telemetry: Any = None,
        compile_cache: Any = None,
        config: VMConfig | None = None,
    ) -> None:
        if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
            sys.setrecursionlimit(_MIN_RECURSION_LIMIT)
        # Telemetry attaches before any subsystem so the mutation
        # manager's hooks can bake instrumentation in at build time;
        # ``True`` means "give me a default-configured Telemetry".
        if telemetry is True:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        self.telemetry = telemetry
        self._init_session_state(seed)
        self._build_program_world(
            program, mutation_plan, adaptive_config, compile_cache, config
        )

    # -- the two state layers ------------------------------------------------

    def _init_session_state(self, seed: int) -> None:
        """Everything one executing tenant mutates.  A
        :class:`repro.server.Session` owns exactly these attributes
        privately (plus a :class:`~repro.vm.jtoc.JTOCView` for the
        static-field values) while borrowing the program world."""
        self.heap = HeapStats()
        self.intrinsic_ctx = IntrinsicContext(seed)
        self.mutation_stats = VMStats()
        self.compile_stats = CompileStats()
        # Inert: benchmarks/jxbench/protocol.py:241-242 reads it.
        self.memo = types.SimpleNamespace(hits=0, fills=0)
        self._initialized = False
        #: Open call_static calls; the outermost one flushes the cache.
        self._calls = 0

    def _build_program_world(
        self,
        program: ProgramUnit,
        mutation_plan: Any,
        adaptive_config: AdaptiveConfig | None,
        compile_cache: Any,
        config: VMConfig | None,
    ) -> None:
        """Link, attach mutation, prime the adaptive system, and set up
        the quickener — the immutable-once-frozen program structure
        that sessions of a :class:`repro.server.CodeSpace` share.
        Nothing is quickened here: each method's body is quickened and
        validated on its first interpreted call."""
        self.unit = program
        # Persistent compile cache (repro.cache): a CompileCache, a
        # directory path, or None.  JX_CACHE_DIR enables it globally
        # for VMs that are not explicitly given one.
        if compile_cache is None:
            compile_cache = os.environ.get("JX_CACHE_DIR") or None
        if isinstance(compile_cache, (str, os.PathLike)):
            from repro.cache.store import CompileCache

            compile_cache = CompileCache(compile_cache)
        self.compile_cache = compile_cache
        self.config = config or VMConfig()
        #: Translation-validation enforcement record: ``"surface:where"``
        #: -> reason for every transformed body the validator refused to
        #: run (repro.analysis.tv).  All but the quickening verdicts are
        #: digested into the compile cache's environment payload so a
        #: hit never resurrects a refused body.
        self.tv_downgrades: dict[str, str] = {}
        #: Accumulated validator wall seconds (the <5% budget gate).
        self.tv_seconds = 0.0
        self.linker = Linker(program)
        self.linker.link()
        self.classes = self.linker.classes
        self.jtoc = self.linker.jtoc
        self.tib_space = self.linker.tib_space
        # Called through the module, so a tracer that wraps
        # install_shapes sees every call.
        shapes.install_shapes(self)
        #: Static-field values as linked, before any ``<clinit>`` ran —
        #: what a fresh session's :class:`~repro.vm.jtoc.JTOCView`
        #: starts from.  ``<clinit>`` effects are per-session (they may
        #: allocate objects), so the snapshot must predate them.
        self.pristine_statics = list(self.jtoc.fields)
        self.installer = CodeInstaller(self)
        self.adaptive = AdaptiveSystem(
            self, adaptive_config or AdaptiveConfig()
        )
        self._opt_compiler: Any = None
        self.mutation_manager: Any = None
        self.quickener: Any = None
        if self.config.osr:
            from repro.vm.osr import OSRManager

            self.osr: Any = OSRManager(self)
        else:
            self.osr = None
        if mutation_plan is not None:
            from repro.mutation.manager import MutationManager

            self.mutation_manager = MutationManager(self, mutation_plan)
            self.mutation_manager.attach()
        self.adaptive.prime_all()
        # Each method is quickened on its first interpreted call, after
        # hooks are installed and special TIBs exist, so quickened
        # bodies see the final link state.  The quickener registry is
        # what install paths flush when they patch dispatch-table
        # entries in place.
        if self.config.quicken:
            from repro.bytecode.quicken import Quickener

            self.quickener = Quickener(self)

    # ------------------------------------------------------------------

    def flush_inline_caches(self) -> None:
        """Reset every inline-cache key.  Called by the code installer
        and the mutation manager whenever dispatch-table entries are
        patched *in place* (TIB identity unchanged) so no site keeps a
        stale cached target; a no-op when quickening is off."""
        quickener = self.quickener
        if quickener is not None:
            quickener.flush()

    @property
    def opt_compiler(self) -> Any:
        """The optimizing compiler, created on first use."""
        if self._opt_compiler is None:
            from repro.opt.pipeline import OptCompiler

            self._opt_compiler = OptCompiler(self)
        return self._opt_compiler

    @property
    def output(self) -> str:
        return self.intrinsic_ctx.output()

    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Run every <clinit> once, in deterministic linked-class order."""
        if self._initialized:
            return
        self._initialized = True
        for rm in static_initializers(self.classes):
            rm.compiled.invoke(self, [])

    def lookup(self, class_name: str, method_key: str) -> RuntimeMethod:
        rc = self.classes.get(class_name)
        if rc is None:
            raise VMRuntimeError(f"unknown class {class_name!r}")
        rm = rc.own_methods.get(method_key)
        cur = rc.super_rc
        while rm is None and cur is not None:
            rm = cur.own_methods.get(method_key)
            cur = cur.super_rc
        if rm is None:
            raise VMRuntimeError(
                f"unknown method {class_name}.{method_key}"
            )
        return rm

    def call_static(self, class_name: str, method_key: str,
                    args: list[Any] | None = None) -> Any:
        """Invoke a static method through its JTOC cell.  When the
        outermost call returns or raises, the compile cache writes the
        entries its compiles stored as one pack
        (:meth:`~repro.cache.store.CompileCache.flush`)."""
        self._calls += 1
        try:
            self.initialize()
            rm = self.lookup(class_name, method_key)
            if not rm.info.is_static:
                raise VMRuntimeError(
                    f"{rm.qualified_name} is not static"
                )
            return rm.jtoc_cell.compiled.invoke(self, list(args or []))
        finally:
            self._calls -= 1
            if not self._calls and self.compile_cache is not None:
                self.compile_cache.flush()

    def run(self) -> RunResult:
        """Initialize and execute the program entry point."""
        start_compile = self.compile_stats.total_seconds
        start = time.perf_counter()
        value = self.call_static(
            self.unit.entry_class, self.unit.entry_method, []
        )
        wall = time.perf_counter() - start
        tel = _tel_maybe(self.telemetry)
        if tel is not None:
            tel.emit(
                "vm_run",
                dur=wall,
                entry=f"{self.unit.entry_class}.{self.unit.entry_method}",
            )
            tel.metrics.gauge("vm.wall_seconds").set(wall)
            tel.metrics.gauge("vm.compile_seconds").set(
                self.compile_stats.total_seconds - start_compile
            )
        return RunResult(
            value=value,
            output=self.output,
            wall_seconds=wall,
            compile_seconds=self.compile_stats.total_seconds - start_compile,
        )

    # ------------------------------------------------------------------

    def all_runtime_methods(self) -> list[RuntimeMethod]:
        out = []
        for rc in self.classes.values():
            out.extend(
                rm
                for rm in rc.own_methods.values()
                if not rm.info.is_abstract
            )
        return out

    def describe_compiled_state(self) -> str:
        """Debugging report: every method's tier and special versions."""
        lines = []
        for rm in sorted(
            self.all_runtime_methods(), key=lambda r: r.qualified_name
        ):
            specials = (
                f" +{len(rm.specials)} special" if rm.specials else ""
            )
            lines.append(
                f"{rm.qualified_name}: opt{rm.compiled.opt_level}"
                f" ({rm.samples.invocations} calls){specials}"
            )
        return "\n".join(lines)
