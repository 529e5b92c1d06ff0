"""The optimizing compiler driver.

Pass schedules (paper §3.2.1: Jikes opt compiler at levels opt0–opt2;
JxVM's opt0 is the interpreter, so the optimizing pipeline covers opt1
and opt2):

* **opt1** — lower, simplify, constant propagation, CFG cleanup, DCE.
* **opt2** — inlining (with specialization inlining), opt1's passes to
  a fixpoint, strength reduction and bounds-check elimination, then the
  opt1 passes to a fixpoint again.  That second sweep is skipped when it
  cannot change the IR: the first one reached its fixpoint and neither
  strength reduction nor bounds-check elimination rewrote anything.

Both tiers emit Python code through :class:`PyCodegen`, like Jikes
compiles every tier to machine code; opt1 code also counts back-edge
ticks so hot methods are promoted to opt2.

Specialized versions (``compile(..., bindings=...)``) run the
specialization pass right after lowering/inlining so the bound state
fields feed the whole downstream pipeline — this is how "the mutable
functions can be compiled with grade specialized to 0, 1, 2, or 3"
(paper §2.2) happens here.

Every pass is looked up in this module's globals when it runs, so a
profiler can time each one by rebinding its name here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.core import maybe as _tel_maybe

from repro.cache.artifact import code_artifact, link_code
from repro.cache.keys import opt_config_digest
from repro.opt.boundselim import eliminate_bounds_checks
from repro.opt.branchfold import cleanup_cfg
from repro.opt.constprop import constant_propagation
from repro.opt.cse import local_cse
from repro.opt.dce import dead_code_elimination
from repro.opt.inline import InlineConfig, inline_calls
from repro.opt.ir import clone_ir
from repro.opt.lowering import lower_method, lower_method_osr
from repro.opt.pycodegen import PyCodegen
from repro.opt.simplify import simplify
from repro.opt.specialize import SpecBindings, specialize_ir
from repro.opt.strength import strength_reduce
from repro.vm.compiled import OptCompiled

#: Modeled bytes per IR instruction for the opt1 code-size metric.
IR_INSTR_BYTES = 16


def _code_bytes(opt_level: int, fn: Any, source: str) -> int:
    """Modeled code size (Fig. 10): opt1 counts IR instructions, opt2
    the generated source."""
    if opt_level == 1:
        return fn.instr_count() * IR_INSTR_BYTES
    return len(source)


@dataclass(frozen=True)
class OptConfig:
    """Optimizing-compiler tunables (frozen, so a compiler's memoised
    :attr:`OptCompiler.config_digest` cannot go stale)."""

    inline: InlineConfig = field(default_factory=InlineConfig)
    #: Maximum simplify/constprop/cleanup/DCE fixpoint iterations.
    max_iterations: int = 5


class OptCompiler:
    """Compiles RuntimeMethods at opt1/opt2 for one VM."""

    def __init__(self, vm: Any, config: OptConfig | None = None) -> None:
        self.vm = vm
        self.config = config or OptConfig()
        #: The compile-cache key's opt-config digest, once per compiler.
        self.config_digest = opt_config_digest(self.config)
        #: id(RuntimeMethod) -> post-inline opt2 IR snapshot, kept for
        #: mutable methods only (no other method is ever specialized).
        self._ir_snapshots: dict[int, Any] = {}

    # ------------------------------------------------------------------

    def _pass(self, name: str, pass_fn, fn) -> int:
        """Run one optimizer pass, timing it when telemetry is active."""
        tel = _tel_maybe(self.vm.telemetry)
        if tel is None:
            return pass_fn(fn)
        start = time.perf_counter()
        result = pass_fn(fn)
        seconds = time.perf_counter() - start
        tel.emit(
            "opt_pass", dur=seconds, opt_pass=name,
            changed=result if isinstance(result, (int, bool)) else None,
        )
        tel.observe(f"opt.pass_seconds.{name}", seconds)
        return result

    def _run_core_pipeline(self, fn) -> bool:
        """Sweep the core passes until one sweep changes nothing or
        ``max_iterations`` run out; returns whether the fixpoint was
        reached.  A pass that reports no change leaves the IR as it
        was, so at the fixpoint another sweep would change nothing."""
        run = self._pass
        for _ in range(self.config.max_iterations):
            changed = run("simplify", simplify, fn)
            changed += run("cse", local_cse, fn)
            changed += run("constprop", constant_propagation, fn)
            changed += run("cleanup_cfg", cleanup_cfg, fn)
            changed += run("dce", dead_code_elimination, fn)
            if not changed:
                return True
        return False

    def _run_opt2_passes(self, fn) -> None:
        """opt2's schedule after lowering, inlining and specialization:
        a core sweep, strength reduction and bounds-check elimination,
        then a second core sweep unless it cannot change the IR."""
        fixpoint = self._run_core_pipeline(fn)
        changed = self._pass("strength", strength_reduce, fn)
        changed += self._pass("boundselim", eliminate_bounds_checks, fn)
        if changed or not fixpoint:
            self._run_core_pipeline(fn)

    def build_ir(
        self,
        rm: Any,
        opt_level: int,
        bindings: SpecBindings | None = None,
        entry_pc: int | None = None,
    ):
        """Produce optimized IR for ``rm`` at ``opt_level``.

        The post-inline IR of an opt2 *general* compile of a mutable
        method is snapshotted; specialized versions clone that snapshot
        instead of re-lowering and re-inlining (Fig. 5 generates the
        general and all special versions together, so the snapshot is
        always fresh when the manager asks for specials).  A special of
        a method compiled before it became mutable (an online attach)
        finds no snapshot and lowers and inlines afresh.

        ``entry_pc`` builds an OSR continuation instead: the method
        lowered with its entry at that loop header
        (:func:`~repro.opt.lowering.lower_method_osr`), never
        snapshotted, since specials start from the general body.
        """
        fn = None
        if opt_level >= 2 and bindings:
            snapshot = self._ir_snapshots.get(id(rm))
            if snapshot is not None:
                fn = clone_ir(snapshot)
        if fn is None:
            if entry_pc is None:
                fn = self._pass(
                    "lower", lambda _f: lower_method(rm.info), None
                )
            else:
                fn = self._pass(
                    "lower",
                    lambda _f: lower_method_osr(rm.info, entry_pc),
                    None,
                )
            if opt_level >= 2:
                self._pass(
                    "inline",
                    lambda f: inline_calls(
                        f, self.vm, rm, self.config.inline
                    ),
                    fn,
                )
                if entry_pc is None and rm.is_mutable:
                    self._ir_snapshots[id(rm)] = clone_ir(fn)
        if bindings:
            self._pass(
                "specialize", lambda f: specialize_ir(f, bindings), fn
            )
            if (bindings.tib is not None
                    and getattr(self.vm.config, "osr", False)):
                # Arm mid-frame deopt: after every hooked state write
                # on `this`, guard that the receiver still
                # has the specialized-for TIB and bail to the
                # interpreter otherwise (OSR's reverse direction).
                from repro.vm.osr import insert_deopt_points

                self._pass(
                    "deoptpoints",
                    lambda f: insert_deopt_points(f, rm, bindings.tib),
                    fn,
                )
        if opt_level >= 2:
            self._run_opt2_passes(fn)
        else:
            self._run_core_pipeline(fn)
        return fn

    def compile_osr_continuation(
        self, rm: Any, pc: int, opt_level: int
    ) -> OptCompiled:
        """Compile an OSR continuation of ``rm`` entered at bytecode
        ``pc``.

        The executor's signature matches the normal one —
        ``executor(vm, args)`` — but ``args`` is the *full captured
        locals frame* (``max_locals`` values), not the parameter list.
        A continuation is one more version of the method, so it takes
        the same compile-cache path as general and special compiles,
        keyed by its entry pc; nothing installs the returned
        ``OptCompiled`` (the caller keeps its executor)."""
        return self._compile(rm, opt_level, None, pc)

    def compile(
        self,
        rm: Any,
        opt_level: int,
        bindings: SpecBindings | None = None,
    ) -> OptCompiled:
        """Compile one version of ``rm`` (general, or specialized when
        ``bindings`` are given) and return the compiled method.  The
        caller installs it.

        With a compile cache attached to the VM, a prior compile of the
        same (program, method, tier, bindings, config, environment) is
        re-linked instead of recompiled; misses populate the cache."""
        if opt_level not in (1, 2):
            raise ValueError(f"opt_level must be 1 or 2, got {opt_level}")
        return self._compile(rm, opt_level, bindings, None)

    def _compile(
        self,
        rm: Any,
        opt_level: int,
        bindings: SpecBindings | None,
        entry_pc: int | None,
    ) -> OptCompiled:
        cache = getattr(self.vm, "compile_cache", None)
        if cache is None:
            return self._compile_exclusive(
                None, None, rm, opt_level, bindings, entry_pc
            )
        key = cache.key_for(self.vm, rm, opt_level, bindings,
                            self.config, entry_pc,
                            config_dig=self.config_digest)
        # The whole load→compile→store sequence runs under the key's
        # lock: a concurrent compiler of the same key waits here and
        # then hits what the first one stored, instead of recompiling
        # (and the load can never race a store).
        with cache.key_lock(key) as waited:
            if waited:
                tel = _tel_maybe(self.vm.telemetry)
                if tel is not None:
                    tel.observe("cache.lock_wait_seconds", waited)
            return self._compile_exclusive(
                cache, key, rm, opt_level, bindings, entry_pc
            )

    def _compile_exclusive(
        self,
        cache: Any,
        key: str | None,
        rm: Any,
        opt_level: int,
        bindings: SpecBindings | None,
        entry_pc: int | None,
    ) -> OptCompiled:
        """The compile body; the caller holds ``key``'s lock when a
        cache is attached."""
        if cache is not None:
            cm = self._link_cached(cache, key, rm, opt_level, bindings)
            if cm is not None:
                return cm
        fn = self.build_ir(rm, opt_level, bindings, entry_pc)
        state_label = bindings.label if bindings else None
        if entry_pc is None:
            # opt1 is never the top tier the compiler builds, so its
            # code ticks back-edges on the way to opt2.
            gen = PyCodegen(
                fn, opt_level, tick_rm=rm if opt_level == 1 else None
            )
        else:
            # Continuations are built at the final tier: no ticks.
            gen = PyCodegen(fn, opt_level, func_name="_jx_osr")
        source, executor = self._pass(
            "codegen", lambda _f: gen.generate(), None
        )
        code_bytes = _code_bytes(opt_level, fn, source)
        cm = OptCompiled(
            rm,
            executor,
            opt_level=opt_level,
            specialized_state=state_label,
            code_size_bytes=code_bytes,
            # Only opt2 IR is read again (TV reads specials' IR).
            ir=fn if opt_level == 2 else None,
            source_text=source,
        )
        if cache is not None:
            if gen.uncacheable:
                cache.uncacheable += 1
            else:
                artifact = code_artifact(
                    opt_level, gen.func_name, source, gen.pin_refs,
                    gen.code, code_bytes,
                )
                cache.store(key, artifact, meta={
                    "cls": rm.rclass.name,
                    "method": rm.info.key,
                    "opt_level": opt_level,
                    "special": state_label,
                    "osr_pc": entry_pc,
                })
        # Under active telemetry, keep dispatch going through the
        # counting invoke() even for final-tier methods (the direct
        # executor binding would make their calls invisible).
        if _tel_maybe(self.vm.telemetry) is not None:
            cm.__dict__.pop("invoke", None)
        return cm

    def _link_cached(
        self,
        cache: Any,
        key: str,
        rm: Any,
        opt_level: int,
        bindings: SpecBindings | None,
    ) -> OptCompiled | None:
        """Try to build an OptCompiled from a cache entry.  Any failure
        (absent, corrupt, or unlinkable entry) is a miss and the caller
        compiles normally — correctness never depends on the cache."""
        tel = _tel_maybe(self.vm.telemetry)
        start = time.perf_counter()
        artifact = cache.load(key)
        cm = None
        if artifact is not None:
            state_label = bindings.label if bindings else None
            try:
                if artifact.get("kind") == f"opt{opt_level}":
                    source, executor = link_code(self.vm, artifact)
                    cm = OptCompiled(
                        rm,
                        executor,
                        opt_level=opt_level,
                        specialized_state=state_label,
                        code_size_bytes=artifact["code_bytes"],
                        source_text=source,
                    )
            except Exception:
                # Mis-linked or corrupt entry: count it and recompile.
                cache.link_errors += 1
                cm = None
        if cm is None:
            cache.misses += 1
            if tel is not None:
                tel.count("cache.miss")
            return None
        cm.from_cache = True
        cache.hits += 1
        if tel is not None:
            tel.count("cache.hit")
            tel.observe(
                "cache.load_seconds", time.perf_counter() - start
            )
            cm.__dict__.pop("invoke", None)
        return cm
