"""On-stack replacement: mid-frame tier transfer in both directions.

Without OSR, a frame finishes in the tier it *started* in: a
single-invocation hot loop interprets forever even after the adaptive
system recompiled its method, and a specialized (TIB-speculating) frame
that invalidates its own speculation mid-loop keeps running unguarded
code.  This module adds both transfers:

* **enter** (opt0 -> compiled) — when an interpreter back-edge crosses
  the promotion threshold and the operand stack is empty, the live frame
  (the locals list; the pc is the back-edge target) is handed to an *OSR
  continuation*: the same method lowered normally, but with the IR entry
  repointed at the loop-header block and every local turned into a
  parameter (:func:`repro.opt.lowering.lower_method_osr`).  Dead locals
  are nulled from the instruction-level liveness analysis
  (:mod:`repro.analysis.liveness`) so the transferred frame carries no
  stale state.  Continuations compile at the *final* tier directly: the
  frame has already proven itself hot, and a continuation is a one-off
  executor outside the method's tier ladder (nothing installs it), so
  an opt1 continuation would finish a single-invocation frame at opt1
  even after its back-edge ticks promoted the method.  A continuation
  is otherwise one more version of the method: it goes through the
  persistent compile cache keyed by its entry pc, so a warm start links
  it instead of compiling it.  ``rm.osr_entries`` only spares repeat
  crossings within one VM the lookup.

* **deopt** (specialized -> opt0) — specialized code elides state
  dispatch with **no value guards** (paper §2.2); the TIB-swap protocol
  keeps *future invocations* correct, but a frame that swaps its own
  receiver's TIB mid-loop is speculating on a stale state for the rest
  of the frame.  The specializer therefore plants ``deoptcheck``
  instructions after each hooked state write on ``this``
  (:func:`insert_deopt_points`): if the receiver's TIB moved, the frame
  bails to :func:`deopt_to_interpreter`, which resumes the interpreter
  loop at the recorded pc with the reconstructed locals — on the
  method's quickened body when one is published, its pristine
  bytecode otherwise.  Both continuing and deopting are behaviorally
  correct (the specializer never folds self-written fields), which is
  exactly what makes the differential tests able to compare ``JX_OSR``
  on/off byte-for-byte.

Frame mapping is trivial by construction: transfers happen only at pcs
where the operand stack is provably empty (loop back-edge targets, and
post-store pcs recorded by the lowerer only at depth 0), so the frame
*is* the locals list.  Quickening is slot- and pc-preserving, and
translation validation proves every slot of a published body from a
generic state, so a pristine pc is a valid entry into the quickened
body and both bodies transfer with the same coordinates.

Sessions of a shared code space never OSR-enter (their thresholds are
frozen at NEVER), but deopt guards baked into shared specialized code
work per-session: the invoking ``vm`` arrives at runtime, so counters
and the resumed interpreter frame are charged to the right tenant.
"""

from __future__ import annotations

import time
from typing import Any

from repro.analysis.liveness import live_locals
from repro.opt.ir import Extra, IRFunction, IRInstr, Reg
from repro.telemetry.core import maybe as _tel_maybe
from repro.vm.adaptive import CompileEvent
from repro.vm.interpreter import interpret_quick

__all__ = ["OSRManager", "deopt_to_interpreter", "insert_deopt_points"]


class OSRManager:
    """Builds and caches OSR entry continuations for one VM.

    Created by the VM when ``VMConfig.osr`` is on; shared by every
    session of a code space (continuations, like all compiled code, are
    program-world state).
    """

    def __init__(self, vm: Any) -> None:
        self.vm = vm

    def entry_for(self, rm: Any, pc: int) -> Any:
        """The continuation for entering ``rm`` mid-frame at ``pc``, or
        ``None`` when the pc is ineligible or the compile failed.

        The result is cached on the RuntimeMethod (``False`` marks a pc
        proven ineligible so it is never retried)."""
        entries = rm.osr_entries
        if entries is None:
            entries = rm.osr_entries = {}
        if pc in entries:
            cached = entries[pc]
            return cached if cached is not False else None
        built = self._build_entry(rm, pc)
        entries[pc] = built if built is not None else False
        return built

    # ------------------------------------------------------------------

    def _build_entry(self, rm: Any, pc: int) -> Any:
        vm = self.vm
        cfg = vm.adaptive.config
        level = 2 if cfg.max_opt_level >= 2 else 1
        # The compensation set: locals dead at the entry pc are nulled
        # so the transferred frame carries exactly the state the
        # abstract interpreter frame would.
        live = live_locals(rm.info.code)[pc]
        dead = tuple(i for i in range(rm.info.max_locals) if i not in live)
        if getattr(vm.config, "tv", False):
            # Translation validation: the entry pc must be a
            # stack-depth-0 loop header and the compensation set must
            # agree with an independent liveness run; an unprovable
            # entry is rejected before the compile-cache lookup, so a
            # stored continuation is never linked for it (the caller
            # caches the permanent-miss sentinel).
            from repro.analysis.tv import check_osr_entry

            if not check_osr_entry(vm, rm, pc, dead):
                return None
        tel = _tel_maybe(vm.telemetry)
        qualified = rm.info.qualified_name
        if tel is not None:
            tel.emit(
                "compile_begin",
                method=qualified,
                opt_level=level,
                special=False,
                osr=True,
            )
        start = time.perf_counter()
        try:
            cm = vm.opt_compiler.compile_osr_continuation(rm, pc, level)
        except Exception:
            # An OSR miss must never take down a program the plain
            # interpreter would finish; the frame just keeps
            # interpreting.  (Promotion of *future* invocations is
            # unaffected — the general recompile already happened.)
            # The count keeps a compiler fault from vanishing.
            vm.mutation_stats.osr_compile_failures += 1
            seconds = time.perf_counter() - start
            if tel is not None:
                tel.emit(
                    "compile_end",
                    dur=seconds,
                    method=qualified,
                    opt_level=level,
                    special=False,
                    code_size_bytes=0,
                    osr=True,
                    failed=True,
                )
                tel.count("osr.compile_failed")
            return None
        seconds = time.perf_counter() - start
        code_size = cm.code_size_bytes
        if getattr(cm, "from_cache", False):
            vm.compile_stats.cached_methods += 1
        vm.compile_stats.record(
            CompileEvent(
                qualified_name=qualified,
                opt_level=level,
                seconds=seconds,
                code_size_bytes=code_size,
                num_versions=1,
            )
        )
        if tel is not None:
            tel.emit(
                "compile_end",
                dur=seconds,
                method=qualified,
                opt_level=level,
                special=False,
                code_size_bytes=code_size,
                osr=True,
            )
            tel.count(f"compile.count.opt{level}")
            tel.count("compile.code_bytes", code_size)

        def entry(
            vm: Any,
            locals_: list,
            _executor=cm.executor,
            _rm=rm,
            _pc=pc,
            _level=level,
            _dead=dead,
        ) -> Any:
            vm.mutation_stats.osr_enters += 1
            tel = _tel_maybe(vm.telemetry)
            if tel is not None:
                tel.emit(
                    "osr_enter",
                    method=_rm.info.qualified_name,
                    pc=_pc,
                    to_level=_level,
                )
                tel.count("osr.enter")
            for i in _dead:
                locals_[i] = None
            return _executor(vm, locals_)

        # Validation record: the lint client re-proves the entry's
        # compensation set against an independent liveness run.
        entry.dead_locals = dead
        entry.entry_pc = pc
        return entry


def deopt_to_interpreter(vm: Any, rm: Any, pc: int, locals_: list) -> Any:
    """Resume ``rm`` in :func:`~repro.vm.interpreter.interpret_quick` at
    ``pc`` with the reconstructed ``locals_`` frame (the OSR exit /
    mid-frame deopt), on the quickened body when one is published.

    Called from specialized code when a ``deoptcheck`` guard observes
    that the receiver's TIB moved off the specialized-for state.  No
    entry ticks are credited — this is the *same* frame continuing, not
    a new invocation — and the method's threshold is already retired
    (specials only exist at the top tier), so the resumed frame cannot
    ping-pong back into compiled code.
    """
    vm.mutation_stats.osr_deopts += 1
    tel = _tel_maybe(vm.telemetry)
    if tel is not None:
        tel.emit(
            "osr_deopt", method=rm.info.qualified_name, pc=pc
        )
        tel.count("osr.deopt")
    return interpret_quick(vm, rm, locals_, pc)


def insert_deopt_points(fn: IRFunction, rm: Any, tib: Any) -> int:
    """Plant ``deoptcheck`` guards in specialized IR; returns the count.

    After every hooked state write on ``this`` that carries a resume pc
    (the lowerer records one only where the operand stack is empty),
    insert a guard comparing the receiver's TIB against the
    specialized-for special TIB ``tib``.  The guard's args carry the
    live locals so the register allocator of the day (DCE) keeps their
    defining movs alive; dead locals deopt as ``None``.
    """
    from repro.opt.specialize import this_aliases

    aliases = this_aliases(fn)
    live_at: list | None = None
    planted = 0
    for block in fn.blocks.values():
        out: list[IRInstr] = []
        for instr in block.instrs:
            out.append(instr)
            ex = instr.extra
            if (
                instr.op == "putfield"
                and ex.pc is not None
                and ex.hook is not None
                and isinstance(instr.args[0], Reg)
                and instr.args[0].name in aliases
            ):
                if live_at is None:
                    live_at = live_locals(rm.info.code)
                live = sorted(live_at[ex.pc])
                out.append(
                    IRInstr(
                        "deoptcheck",
                        None,
                        [instr.args[0]] + [Reg(f"l{k}") for k in live],
                        Extra(pc=ex.pc, live=live, rm=rm, tib=tib),
                        instr.line,
                    )
                )
                planted += 1
        block.instrs = out
    return planted
