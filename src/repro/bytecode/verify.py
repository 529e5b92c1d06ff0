"""Structural bytecode verifier.

Checks the properties the rest of the system relies on:

* every branch target is a valid instruction index;
* execution cannot fall off the end of the code array;
* the operand-stack depth at each instruction is consistent across all
  paths reaching it (a requirement for the stack-to-register lowering in
  :mod:`repro.opt.lowering`);
* local indices are within ``max_locals``;
* call/intrinsic argument counts are non-negative;
* pristine code contains no runtime-only quickened opcode
  (:data:`~repro.bytecode.opcodes.QUICK_OPS`).

The verifier returns the per-instruction entry stack depth map, which the
IR lowering reuses.

Quickened bodies (``rm.quick_code``) have their own entry,
:func:`verify_quick`.  Both entries run one stack-depth walk,
:func:`stack_depths`, over the successor rule
:func:`~repro.bytecode.opcodes.successors`: a superinstruction covers
several slots, and a branch may land *inside* a fused region because
fusion is slot-preserving.  They differ in their per-slot checks and in
the stack-effect rule: a quickened call's push count comes from the
linked resolution state instead of a frontend-provided map.
"""

from __future__ import annotations

from functools import partial

from repro.bytecode.classfile import MethodInfo
from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import (
    CALL_OPS, INTRINSIC, LOAD, LOAD_LOAD, OP_INFO, QUICK_OPS, STORE, Op,
    branch_target, op_width, successors,
)


#: ``(pops, pushes)`` per opcode (``VARIABLE`` for calls and intrinsics).
_EFFECT = {op: (info.pops, info.pushes) for op, info in OP_INFO.items()}
_IC_CALLS = frozenset({Op.INVOKEVIRTUAL_QUICK, Op.INVOKEINTERFACE_QUICK})
#: Quick ops whose arg is one local index, and those whose packed arg
#: holds one at ``arg[0]`` (see :func:`_quick_local_indices`).
_LOCAL_ARG_OPS = frozenset({
    Op.LOAD, Op.STORE, Op.ADD_STORE, Op.LOAD_RETURN,
    Op.LOAD_ADD, Op.LOAD_SUB, Op.LOAD_MUL,
})
_LOCAL_ARG0_OPS = frozenset({
    Op.LOAD_GETFIELD, Op.LOAD_CONST, Op.GETFIELD_RETURN,
    Op.INC, Op.ITER_LT_JF, Op.FIELD_INC,
})


class VerifyError(Exception):
    """Raised when a method body violates bytecode structural rules."""

    def __init__(self, method: MethodInfo, index: int, message: str) -> None:
        self.method = method
        self.index = index
        super().__init__(f"{method.qualified_name} @{index}: {message}")


def stack_effect(call_returns: dict[int, bool], instr: Instr,
                 pc: int) -> tuple[int, int]:
    """``(pops, pushes)`` for ``instr`` at slot ``pc`` of a pristine body.

    For call instructions the pop count comes from the encoded ``nargs``;
    whether the call pushes depends on the callee's return type, which the
    verifier does not know — ``call_returns`` maps a call's slot to it
    when the caller knows.  To stay sound the verifier requires the
    *frontend* to emit an explicit POP after void-returning expression
    statements, so here a call is assumed to push exactly when its
    ``call_returns`` entry is not ``False``.
    """
    op = instr.op
    if op in CALL_OPS:
        return instr.arg[2], 1 if call_returns.get(pc) in (True, None) else 0
    if op is INTRINSIC:
        return instr.arg[1], 1 if call_returns.get(pc) in (True, None) else 0
    return _EFFECT[op]


def verify_method(
    method: MethodInfo,
    call_returns: dict[int, bool] | None = None,
) -> list[int]:
    """Verify ``method`` and return the entry stack depth per instruction.

    Args:
        method: The method to verify (abstract methods verify trivially).
        call_returns: Optional map from instruction index to whether the
            call/intrinsic at that index pushes a result.  When provided
            (the frontend records this), depth checking is exact.

    Raises:
        VerifyError: On any structural violation.
    """
    if method.is_abstract:
        return []
    code = method.code
    if not code:
        raise VerifyError(method, 0, "empty code array")
    call_returns = call_returns or {}

    n = len(code)
    max_locals = method.max_locals
    # Per-slot checks (the op classes are disjoint; the most common
    # come first).
    for i, instr in enumerate(code):
        op = instr.op
        if op is LOAD or op is STORE:
            if not (0 <= instr.arg < max_locals):
                raise VerifyError(
                    method, i,
                    f"local index {instr.arg} out of range "
                    f"(max_locals={max_locals})",
                )
        elif op in CALL_OPS or op is INTRINSIC:
            nargs = instr.arg[2] if op in CALL_OPS else instr.arg[1]
            if nargs < 0:
                raise VerifyError(method, i, f"negative arg count {nargs}")
        elif op in QUICK_OPS:
            raise VerifyError(
                method, i,
                f"runtime-only quickened opcode {op.name} "
                f"in pristine code",
            )
        elif OP_INFO[op].is_branch:
            if not isinstance(instr.arg, int) or not (0 <= instr.arg < n):
                raise VerifyError(method, i, f"bad branch target {instr.arg!r}")

    # Fall-through-off-the-end check.
    last = code[-1]
    if n in successors(last, n - 1):
        raise VerifyError(method, n - 1, (
            "conditional branch at end of code" if last.is_branch
            else "control can fall off end of code"
        ))

    depths = stack_depths(
        code, partial(stack_effect, call_returns),
        lambda i, message: VerifyError(method, i, message),
    )
    return [d if d is not None else 0 for d in depths]


def stack_depths(code: list[Instr], effect, fail) -> list[int | None]:
    """Entry stack depth of every slot of ``code`` that control reaches
    from slot 0 (``None`` at the others).

    The one stack-depth walk of :func:`verify_method`,
    :func:`verify_quick` and translation validation, which differ only
    in the stack-effect rule ``effect(instr, pc) -> (pops, pushes)``.
    Control flow is :func:`~repro.bytecode.opcodes.successors`, so the
    walk is width-aware: after a superinstruction at slot ``i`` the next
    slot executed is ``i + op_width(op)``.  ``fail(index, message)``
    builds the exception raised on a stack underflow, a successor
    outside the body, or a depth that disagrees at a join.
    """
    n = len(code)
    depths: list[int | None] = [None] * n
    depths[0] = 0
    work = [0]
    while work:
        i = work.pop()
        depth = depths[i]
        instr = code[i]
        pops, pushes = effect(instr, i)
        if depth < pops:
            raise fail(i, f"stack underflow (depth={depth}, pops={pops})")
        out = depth - pops + pushes
        succs = successors(instr, i)
        if len(succs) == 2:
            # A branch target first, then the fall-through, which the
            # LIFO worklist then walks first.
            succs = succs[::-1]
        for s in succs:
            if s is None or not 0 <= s < n:
                raise fail(i, (
                    "control can fall off end of quickened code"
                    if s == i + op_width(instr.op)
                    else f"bad branch target {s!r}"
                ))
            known = depths[s]
            if known is None:
                depths[s] = out
                work.append(s)
            elif known != out:
                raise fail(
                    s, f"inconsistent stack depth at join: {known} vs {out}"
                )
    return depths


# ---------------------------------------------------------------------------
# Quickened bodies.

def _quick_local_indices(instr: Instr) -> tuple[int, ...]:
    """Local-variable indices a (possibly fused) quick op reads/writes.

    Mirrors the ``locals_[...]`` accesses in ``interpret_quick``:
    superinstructions pack locals into tuple args (``ITER_LT_JF`` packs
    ``(local, limit, target)`` — only ``a[0]`` is a local; ``FIELD_INC``
    packs ``(local, putfield_instr, const)``).
    """
    op, a = instr.op, instr.arg
    if op in _LOCAL_ARG_OPS:
        return (a,)
    if op in _LOCAL_ARG0_OPS:
        return (a[0],)
    if op is LOAD_LOAD:
        return (a[0], a[1])
    return ()


def stack_effect_quick(instr: Instr, pc: int) -> tuple[int, int]:
    """``(pops, pushes)`` for an instruction in a quickened body.

    Unlike :func:`stack_effect`, call push-counts come from the *linked*
    resolution state (``instr.resolved``) — a quickened body only exists
    after the method ran, so every call site is resolved.  An unresolved
    call (possible in hand-built test code) falls back to "pushes".
    ``pc`` is unused; it makes this a :func:`stack_depths` rule.
    """
    op = instr.op
    if op in CALL_OPS:
        resolved = instr.resolved
        pushes = 1
        if isinstance(resolved, tuple):
            pushes = 1 if resolved[-1] else 0
        return instr.arg[2], pushes
    if op in _IC_CALLS:
        ic = instr.resolved
        if ic is None:
            return instr.arg[2], 1
        return ic.argc, 1 if ic.returns else 0
    if op is INTRINSIC:
        intr = instr.resolved
        if intr is None:
            return instr.arg[1], 1
        return intr.nargs, 1 if intr.returns else 0
    return _EFFECT[op]


def verify_quick_depths(method: MethodInfo,
                        code: list[Instr]) -> list[int | None]:
    """Verify a quickened body; return the entry stack depth of each
    executed slot, ``None`` at the others (see :func:`stack_depths`).

    The structural rules of :func:`verify_method`, adapted to quickened
    execution:

    * traversal is width-aware — after a fused op at slot ``i`` the next
      instruction executed is ``i + op_width(op)``;
    * branch targets come from :func:`~repro.bytecode.opcodes.branch_target`
      (``ITER_LT_JF`` packs its target) and may land *inside* a fused
      region, because fusion is slot-preserving: every covered slot still
      holds its original standalone instruction, which this traversal
      then verifies along that path;
    * local indices packed into superinstruction args are range-checked
      for **every** slot (covered slots included — they must stay valid
      branch-landing pads);
    * stack depth must be path-consistent over all *executed* slots.

    Raises:
        VerifyError: On any structural violation.
    """
    if not code:
        raise VerifyError(method, 0, "empty quickened code array")
    n = len(code)

    # Per-slot checks: every slot (covered or not) must hold a valid
    # standalone-executable instruction.
    for i, instr in enumerate(code):
        target = branch_target(instr)
        if target is not None and not (0 <= target < n):
            raise VerifyError(method, i, f"bad branch target {target!r}")
        for local in _quick_local_indices(instr):
            if not (0 <= local < method.max_locals):
                raise VerifyError(
                    method, i,
                    f"local index {local} out of range "
                    f"(max_locals={method.max_locals})",
                )
        if instr.op in CALL_OPS or instr.op is INTRINSIC:
            nargs = (instr.arg[2] if instr.op in CALL_OPS
                     else instr.arg[1])
            if nargs < 0:
                raise VerifyError(method, i, f"negative arg count {nargs}")

    return stack_depths(
        code, stack_effect_quick,
        lambda i, message: VerifyError(method, i, message),
    )


def verify_quick(method: MethodInfo, code: list[Instr]) -> list[int]:
    """:func:`verify_quick_depths` with an unreached slot's depth read
    as 0."""
    depths = verify_quick_depths(method, code)
    return [d if d is not None else 0 for d in depths]


def verify_quick_method(rm) -> list[int]:
    """Verify ``rm.quick_code`` (a no-op empty result when the method
    has not been quickened)."""
    if not getattr(rm, "quick_code", None):
        return []
    return verify_quick(rm.info, rm.quick_code)


def verify_program(program, call_returns_by_method=None) -> None:
    """Verify every concrete method in ``program``.

    Args:
        program: A :class:`~repro.bytecode.classfile.ProgramUnit`.
        call_returns_by_method: Optional ``{qualified_name: {index: bool}}``.
    """
    call_returns_by_method = call_returns_by_method or {}
    for method in program.all_methods():
        if not method.is_abstract:
            verify_method(
                method, call_returns_by_method.get(method.qualified_name)
            )
