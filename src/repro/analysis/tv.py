"""Translation validation for every transformed code surface.

OSR continuations and quickened code are code transformations whose
correctness once rested on differential tests alone.  This module
extends the attach-time audit's "soundness proven, not assumed" policy
to both: each transformed body is *proven* observationally equivalent
to its pristine source, and anything unprovable is downgraded — never
run.

Two clients, one per surface:

**quicken/fusion** (:func:`tv_quicken_findings`)
    Every ``*_QUICK`` body and superinstruction idiom is validated
    against the pristine bytecode by per-slot lockstep symbolic
    execution (:mod:`repro.analysis.symstate`): from a fully generic
    entry state, one fused step must produce exactly the outcomes of
    the pristine region it covers.  This replaces trust in the
    hand-maintained fusion tables — and subsumes the hook-liveness
    lint, because write effects carry the identity of the ``Instr``
    whose ``state_hook`` is read live.

**OSR** (:func:`tv_osr_findings`)
    Each continuation's entry must agree with an independently computed
    :func:`repro.analysis.liveness.live_locals` compensation set at its
    loop header (a stack-depth-0 backward-branch target), and every
    ``deoptcheck`` bail site must pass a frame the interpreter can
    resume: recorded at stack depth 0 with exactly the live locals
    materialized in its args.

Plus the deopt-guard safety lint (:func:`deopt_guard_findings`): every
hooked state-field store on ``this`` in a TIB-speculating specialized
body must carry its ``deoptcheck`` guard.

Enforcement (downgrade, don't run) hooks into each surface's producer:
``Quickener.quicken`` publishes a method's quickened body, on the
method's first interpreted call, only once :func:`prove_quick_body`
proves it; and ``OSRManager._build_entry`` rejects unprovable entries
into the permanent-miss sentinel (:func:`check_osr_entry`).  Every
downgrade lands in ``vm.tv_downgrades``, which lint reports.  The OSR
verdicts are also digested into the compile cache's environment
payload, so a cache hit never resurrects an unvalidated body;
quickening verdicts are not, because no compile reads quickened code.

Accounting is three-way: ``vm.mutation_stats.tv_*`` fields,
``analysis.tv_*`` telemetry counters, and ``tv_validated`` events all
bump together; validation time accumulates in ``vm.tv_seconds`` and the
``analysis.tv_seconds`` histogram.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

from repro.bytecode.opcodes import branch_target, op_width
from repro.bytecode.verify import (
    VerifyError,
    stack_depths,
    stack_effect_quick,
    verify_quick_depths,
)
from repro.analysis.findings import Finding
from repro.analysis.liveness import live_locals
from repro.analysis.symstate import (
    TVUnprovable,
    region_outcomes,
    step_outcomes,
)
from repro.telemetry.core import maybe as _tel_maybe

__all__ = [
    "tv_quicken_findings",
    "tv_osr_findings",
    "deopt_guard_findings",
    "tv_downgrade_findings",
    "tv_findings",
    "prove_quick_body",
    "check_osr_entry",
    "validate_quick_method",
]


# ---------------------------------------------------------------------------
# Accounting: one helper keeps the stats fields, the telemetry counters,
# and the event bus in exact agreement (the three-way invariant).

def _account(vm: Any, surface: str, *, bodies: int = 0,
             findings: int = 0, downgrades: int = 0) -> None:
    stats = getattr(vm, "mutation_stats", None)
    if stats is not None:
        stats.tv_bodies_validated += bodies
        stats.tv_findings += findings
        stats.tv_downgrades += downgrades
    tel = _tel_maybe(getattr(vm, "telemetry", None))
    if tel is not None:
        if bodies:
            tel.count("analysis.tv_bodies_validated", bodies)
        if findings:
            tel.count("analysis.tv_findings", findings)
        if downgrades:
            tel.count("analysis.tv_downgrades", downgrades)
        tel.emit(
            "tv_validated",
            surface=surface,
            bodies=bodies,
            findings=findings,
            downgrades=downgrades,
        )


def _observe_seconds(vm: Any, seconds: float) -> None:
    vm.tv_seconds = getattr(vm, "tv_seconds", 0.0) + seconds
    tel = _tel_maybe(getattr(vm, "telemetry", None))
    if tel is not None:
        tel.observe("analysis.tv_seconds", seconds)


def _record_downgrade(vm: Any, surface: str, key: str, message: str) -> None:
    downgrades = getattr(vm, "tv_downgrades", None)
    if downgrades is None:
        downgrades = vm.tv_downgrades = {}
    downgrades[f"{surface}:{key}"] = message


def _runtime_methods(vm: Any) -> Iterable[Any]:
    for rc in vm.classes.values():
        for rm in rc.own_methods.values():
            if not rm.info.is_abstract:
                yield rm


# ---------------------------------------------------------------------------
# Surface 1: quicken/fusion.

def validate_quick_method(rm: Any, quick: list | None = None
                          ) -> list[Finding]:
    """Prove ``quick`` (default: ``rm.quick_code``) equivalent to
    ``rm.info.code`` slot by slot; one finding per unprovable slot
    (empty list = proven)."""
    code = rm.info.code
    qc = rm.quick_code if quick is None else quick
    if not qc:
        return []
    qname = rm.info.qualified_name
    if len(qc) != len(code):
        return [Finding(
            "tv-quicken", qname, -1, qname,
            f"quickened body length {len(qc)} != pristine {len(code)}",
        )]
    try:
        depths = verify_quick_depths(rm.info, qc)
    except VerifyError as e:
        return [Finding("tv-quicken", qname, e.index, qname, str(e))]
    max_locals = rm.info.max_locals
    findings = []
    for pc, depth in enumerate(depths):
        instr = qc[pc]
        if depth is None or instr is code[pc]:
            continue  # unexecuted or untransformed: trivially equivalent
        width = op_width(instr.op)
        try:
            quick = step_outcomes(qc, pc, depth, max_locals)
            pristine = region_outcomes(
                code, pc, pc + width, depth, max_locals
            )
        except TVUnprovable as e:
            findings.append(Finding(
                "tv-quicken", qname, pc, instr.op.name, str(e)
            ))
            continue
        if quick != pristine:
            findings.append(Finding(
                "tv-quicken", qname, pc, instr.op.name,
                f"fused step is not observationally equivalent to the "
                f"pristine region [{pc}, {pc + width}): "
                f"{_diff(quick, pristine)}",
            ))
    return findings


def _diff(quick: list, pristine: list) -> str:
    for q, p in zip(quick, pristine):
        if q != p:
            return f"quick {q!r} vs pristine {p!r}"
    return f"{len(quick)} quick vs {len(pristine)} pristine outcome(s)"


def tv_quicken_findings(vm: Any) -> list[Finding]:
    """Prove every published quickened body.  Under ``VMConfig.tv`` the
    quickener already proved each one before publishing it
    (:func:`prove_quick_body`), and a published body changes later only
    when a megamorphic inline-cache site writes its pristine ``Instr``
    back, which proves trivially; so only the bodies of a VM that
    quickens without TV are proven here."""
    if vm.config.tv:
        return []
    findings = []
    for rm in _runtime_methods(vm):
        findings += validate_quick_method(rm)
    return findings


def prove_quick_body(vm: Any, rm: Any, quick: list) -> bool:
    """Validate one freshly built quickened body before it is published
    (``Quickener.quicken``, on the method's first interpreted call).
    An unprovable body is recorded as a downgrade and never runs: the
    method interprets its pristine bytecode."""
    start = time.perf_counter()
    fs = validate_quick_method(rm, quick)
    if fs:
        _record_downgrade(
            vm, "quicken", rm.info.qualified_name,
            f"quickened body unprovable ({len(fs)} finding(s)); "
            f"the method runs pristine bytecode: {fs[0].message}",
        )
    _account(vm, "quicken", bodies=1, findings=len(fs),
             downgrades=1 if fs else 0)
    _observe_seconds(vm, time.perf_counter() - start)
    return not fs


# ---------------------------------------------------------------------------
# Surface 2: OSR.

def _is_loop_header(code: list, pc: int) -> bool:
    return any(
        branch_target(ins) == pc
        for j, ins in enumerate(code)
        if j >= pc
    )


def _osr_entry_problem(rm: Any, pc: int, dead: tuple) -> str | None:
    """Why the continuation entry at ``pc`` is unprovable, or None.

    ``dead`` is the builder's compensation set; it is cross-checked
    against an independently imported
    :func:`repro.analysis.liveness.live_locals` run (the builder uses
    its own module reference), plus the structural frame-mapping facts:
    the pc must be a stack-depth-0 loop header, so the frame *is* the
    locals list.
    """
    code = rm.info.code
    try:
        depth = stack_depths(code, stack_effect_quick, TVUnprovable)[pc]
    except TVUnprovable as e:
        return f"pristine body is unverifiable: {e}"
    if depth != 0:
        return (
            f"entry pc {pc} has stack depth {depth!r}; the "
            f"frame transfer assumes an empty operand stack"
        )
    if not _is_loop_header(code, pc):
        return f"entry pc {pc} is not a backward-branch target"
    live = live_locals(code)[pc]
    expected = tuple(
        i for i in range(rm.info.max_locals) if i not in live
    )
    if tuple(dead) != expected:
        return (
            f"compensation set {tuple(dead)} disagrees with the "
            f"liveness analysis ({expected}); a live local would be "
            f"nulled (or a dead one leak) across the transfer"
        )
    return None


def check_osr_entry(vm: Any, rm: Any, pc: int, dead: tuple) -> bool:
    """Runtime enforcement for ``OSRManager._build_entry``: an
    unprovable entry is recorded and rejected (the caller caches the
    permanent-miss sentinel, and the frame keeps interpreting)."""
    start = time.perf_counter()
    problem = _osr_entry_problem(rm, pc, dead)
    ok = problem is None
    _account(vm, "osr", bodies=1, findings=0 if ok else 1,
             downgrades=0 if ok else 1)
    if not ok:
        _record_downgrade(
            vm, "osr", f"{rm.info.qualified_name}@{pc}",
            f"OSR entry unprovable; permanent interpreter miss: "
            f"{problem}",
        )
    _observe_seconds(vm, time.perf_counter() - start)
    return ok


def _iter_special_irs(vm: Any):
    """Specialized IR bodies with their (mcr, rm, tib)."""
    manager = getattr(vm, "mutation_manager", None)
    if manager is None:
        return
    for name in sorted(manager.mcrs):
        mcr = manager.mcrs[name]
        for rm in mcr.rc.own_methods.values():
            for key, special in getattr(rm, "specials", {}).items():
                fn = getattr(special, "ir", None)
                if fn is None:
                    continue
                tib = mcr.tib_by_instance.get(key[0])
                yield mcr, rm, tib, fn


def tv_osr_findings(vm: Any) -> list[Finding]:
    findings = []
    for rm in _runtime_methods(vm):
        entries = getattr(rm, "osr_entries", None) or {}
        qname = rm.info.qualified_name
        for pc in sorted(entries):
            entry = entries[pc]
            if entry is False or entry is None:
                continue
            dead = getattr(entry, "dead_locals", None)
            if dead is None:
                findings.append(Finding(
                    "tv-osr", qname, pc, f"{qname}@{pc}",
                    "continuation entry carries no compensation-set "
                    "record to validate",
                ))
                continue
            problem = _osr_entry_problem(rm, pc, dead)
            if problem is not None:
                findings.append(Finding(
                    "tv-osr", qname, pc, f"{qname}@{pc}", problem
                ))
    # Every deoptcheck must bail with a frame the interpreter can
    # resume: recorded at stack depth 0, live locals materialized.
    for _mcr, rm, _tib, fn in _iter_special_irs(vm):
        code = rm.info.code
        qname = rm.info.qualified_name
        depths = None
        for block in fn.blocks.values():
            for instr in block.instrs:
                if instr.op != "deoptcheck":
                    continue
                ex = instr.extra
                if depths is None:
                    depths = stack_depths(
                        code, stack_effect_quick, TVUnprovable
                    )
                if depths[ex.pc] != 0:
                    findings.append(Finding(
                        "tv-osr", qname, ex.pc, f"{qname}@{ex.pc}",
                        f"deoptcheck resumes at stack depth "
                        f"{depths[ex.pc]!r}; the interpreter frame "
                        f"reconstruction assumes depth 0",
                    ))
                    continue
                live = sorted(live_locals(code)[ex.pc])
                if list(ex.live) != live:
                    findings.append(Finding(
                        "tv-osr", qname, ex.pc, f"{qname}@{ex.pc}",
                        f"deoptcheck live set {list(ex.live)} "
                        f"disagrees with the liveness analysis {live}",
                    ))
                elif len(instr.args) != 1 + len(live):
                    findings.append(Finding(
                        "tv-osr", qname, ex.pc, f"{qname}@{ex.pc}",
                        f"deoptcheck materializes "
                        f"{len(instr.args) - 1} locals for a "
                        f"{len(live)}-local live set",
                    ))
    return findings


# ---------------------------------------------------------------------------
# Deopt-guard safety lint.

def deopt_guard_findings(vm: Any) -> list[Finding]:
    """Every hooked state-field store on ``this`` in a TIB-speculating
    specialized body must be followed by its ``deoptcheck`` guard —
    otherwise a frame that swaps its own receiver's TIB keeps
    speculating on the stale state."""
    if not getattr(vm.config, "osr", False):
        return []
    from repro.opt.ir import Reg
    from repro.opt.specialize import this_aliases

    findings = []
    for _mcr, rm, tib, fn in _iter_special_irs(vm):
        if tib is None:
            continue  # not compiled against a special TIB: unguarded
        aliases = this_aliases(fn)
        qname = rm.info.qualified_name
        for block in fn.blocks.values():
            instrs = block.instrs
            for idx, instr in enumerate(instrs):
                ex = instr.extra
                if not (
                    instr.op == "putfield"
                    and ex.pc is not None
                    and ex.hook is not None
                    and isinstance(instr.args[0], Reg)
                    and instr.args[0].name in aliases
                ):
                    continue
                nxt = instrs[idx + 1] if idx + 1 < len(instrs) else None
                if (
                    nxt is None
                    or nxt.op != "deoptcheck"
                    or nxt.extra.pc != ex.pc
                ):
                    findings.append(Finding(
                        "deopt-guard", qname, ex.pc,
                        f"slot {ex.slot}",
                        "hooked state store on `this` in a "
                        "specialized body lacks its deoptcheck guard",
                    ))
    return findings


# ---------------------------------------------------------------------------
# Aggregation.

def tv_downgrade_findings(vm: Any) -> list[Finding]:
    """Surfaces the runtime enforcement decisions: each recorded
    downgrade (refused quickened body, rejected OSR entry) is one
    finding, so ``jx lint --tv`` shows what the validator
    refused to run."""
    out = []
    for key, message in sorted(
        (getattr(vm, "tv_downgrades", None) or {}).items()
    ):
        surface, _, where = key.partition(":")
        out.append(Finding(f"tv-{surface}", where, -1, key, message))
    return out


def tv_findings(vm: Any) -> list[Finding]:
    """All translation-validation checks over a built (and possibly
    run) VM; empty means every transformed surface is proven."""
    start = time.perf_counter()
    findings = tv_quicken_findings(vm)
    findings += tv_osr_findings(vm)
    findings += deopt_guard_findings(vm)
    findings += tv_downgrade_findings(vm)
    _observe_seconds(vm, time.perf_counter() - start)
    return findings
