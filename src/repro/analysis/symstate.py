"""Symbolic lockstep states for translation validation.

The translation validator (:mod:`repro.analysis.tv`) proves a
transformed method body observationally equivalent to its pristine
bytecode by *symbolic abstract interpretation in lockstep*: both bodies
are executed over the same generic entry state (fresh symbols for every
local and every operand-stack slot) and their **outcomes** — successor
pc, branch-condition terms, final stack/locals projection, and the
ordered stream of observable effects — must agree exactly.

The machinery here is deliberately local.  Quickening and fusion are
slot- and pc-preserving, so one superinstruction at slot ``i`` covering
``w`` slots must behave exactly like the pristine region
``code[i : i+w]`` *from any state that can reach slot* ``i``.  Running
both sides from a fully generic state therefore proves a per-slot
simulation that composes by induction over execution — no global
fixpoint, no loop invariants, and termination is trivial (a region is
at most six instructions, the widest idiom ``FIELD_INC``).

Terms are nested hashable tuples:

``("l", i)``
    the value local ``i`` held at entry;
``("s", k)``
    the ``k``-th operand-stack slot at entry (0 = bottom);
``("c", v)``
    the literal ``v``;
``("bin", name, a, b)`` / ``("un", name, a)``
    pure operators (the interpreter's arithmetic, comparisons, string
    concat, conversions — their raise behavior is position-identical on
    both sides because they are never transformed);
``("fld", key, obj, ver)`` / ``("st", slot, ver)`` / ``("el", arr, i, ver)``
    heap reads, versioned by the number of preceding heap-mutating
    effects on the path so a transformation that moved a read across a
    write cannot produce an accidentally-equal term;
``("res", k)``
    the ``k``-th fresh result (call return values and allocations) —
    equal effect streams imply aligned numbering.

Every field site, pristine or quickened, indexes ``obj.fields`` with
its resolved slot, so a field key is ``("slot", int)``; a site whose
slot is not an int is unprovable.

Observable effects (ordered, compared as streams):

* ``("null", obj)`` — a null check, deduplicated per path through the
  proven-nonnull set (the fused ``FIELD_INC`` checks its receiver once
  where the pristine region checks twice; both prove the same set);
* ``("putf", key, obj, value, hook_id)`` / ``("putst", slot, value,
  hook_id)`` — state writes.  ``hook_id`` is the identity of the
  :class:`~repro.bytecode.instructions.Instr` whose ``state_hook`` is
  read **live** at the write, so a quickened body that copied a hooked
  instruction (instead of carrying the shared object) is rejected —
  this subsumes the hook-liveness lint;
* ``("callv", offset, returns, args)`` and friends — the call sequence
  modulo devirtualization: an inline-cached virtual call is equivalent
  to the pristine ``INVOKEVIRTUAL`` iff it dispatches through the same
  vtable offset with the same arity and return arity;
* ``("cast", cls, obj)``, ``("alloc", term)``, ``("intr", id, args)``,
  ``("bound", arr, idx)``, ``("aset", arr, idx, v)`` — the remaining
  observable operations, kept in stream order.
"""

from __future__ import annotations

from typing import Any

from repro.bytecode.opcodes import (
    CALL_OPS,
    Op,
    op_width,
)

__all__ = [
    "TVUnprovable",
    "SymState",
    "entry_state",
    "step_outcomes",
    "region_outcomes",
]


class TVUnprovable(Exception):
    """The validator cannot establish equivalence for a slot — not
    necessarily a miscompile, but the body must not be trusted."""

    def __init__(self, pc: int, message: str) -> None:
        self.pc = pc
        self.reason = message
        super().__init__(f"@{pc}: {message}")


# ---------------------------------------------------------------------------
# Field keys.

def field_key(resolved: Any, pc: int) -> tuple:
    """The access-path key of a field site (``obj.fields[slot]``)."""
    if type(resolved) is not int:
        raise TVUnprovable(pc, f"unresolved field access: {resolved!r}")
    return ("slot", resolved)


_BIN_OPS = {
    Op.ADD: "add", Op.SUB: "sub", Op.MUL: "mul", Op.IDIV: "idiv",
    Op.FDIV: "fdiv", Op.IREM: "irem", Op.SHL: "shl", Op.SHR: "shr",
    Op.BAND: "band", Op.BOR: "bor", Op.BXOR: "bxor",
    Op.CMP_LT: "cmp_lt", Op.CMP_LE: "cmp_le", Op.CMP_GT: "cmp_gt",
    Op.CMP_GE: "cmp_ge", Op.CMP_EQ: "cmp_eq", Op.CMP_NE: "cmp_ne",
    Op.CONCAT: "concat",
}

_UN_OPS = {
    Op.NEG: "neg", Op.NOT: "not", Op.I2D: "i2d", Op.D2I: "d2i",
}


class SymState:
    """One symbolic path through a slot's execution."""

    __slots__ = ("pc", "stack", "locals", "nonnull", "heapver",
                 "fresh", "effects", "conds", "ret", "via_fall")

    def __init__(self, pc: int, stack: list, locals_: list) -> None:
        self.pc = pc
        self.stack = stack
        self.locals = locals_
        #: Terms proven non-null on this path (null checks dedup here).
        self.nonnull: set = set()
        #: Count of heap-mutating effects so far — versions heap reads.
        self.heapver = 0
        #: Fresh-result counter (call returns, allocations).
        self.fresh = 0
        self.effects: list = []
        #: Ordered (term, taken) branch decisions on this path.
        self.conds: list = []
        #: ("v", term) / ("void",) once a return executed, else None.
        self.ret: Any = None
        #: Whether the last transition was sequential fall-through.
        self.via_fall = True

    def fork(self) -> "SymState":
        c = SymState(self.pc, list(self.stack), list(self.locals))
        c.nonnull = set(self.nonnull)
        c.heapver = self.heapver
        c.fresh = self.fresh
        c.effects = list(self.effects)
        c.conds = list(self.conds)
        c.ret = self.ret
        return c

    # -- helpers -------------------------------------------------------

    def pop(self) -> Any:
        if not self.stack:
            raise TVUnprovable(self.pc, "symbolic stack underflow")
        return self.stack.pop()

    def null_check(self, obj: Any) -> None:
        if obj not in self.nonnull:
            self.effects.append(("null", obj))
            self.nonnull.add(obj)

    def result(self) -> tuple:
        t = ("res", self.fresh)
        self.fresh += 1
        return t

    def write_heap(self, effect: tuple) -> None:
        self.effects.append(effect)
        self.heapver += 1

    def outcome(self) -> tuple:
        """The canonical observable summary of this finished path."""
        head = self.ret if self.ret is not None else ("pc", self.pc)
        return (
            head,
            tuple(self.conds),
            tuple(self.stack),
            tuple(self.locals),
            frozenset(self.nonnull),
            tuple(self.effects),
        )


def entry_state(pc: int, depth: int, max_locals: int) -> SymState:
    """The fully generic state at a slot: every stack slot and local is
    a fresh symbol, nothing is proven non-null, no effects ran."""
    return SymState(
        pc,
        [("s", k) for k in range(depth)],
        [("l", k) for k in range(max_locals)],
    )


# ---------------------------------------------------------------------------
# One symbolic step.

def _call_args(st: SymState, argc: int) -> tuple:
    if argc < 0:
        raise TVUnprovable(st.pc, f"negative arg count {argc}")
    args = [st.pop() for _ in range(argc)]
    args.reverse()
    return tuple(args)


def _do_call(st: SymState, effect_head: tuple, argc: int,
             returns: bool, *, receiver_checked: bool) -> None:
    args = _call_args(st, argc)
    if receiver_checked:
        if not args:
            raise TVUnprovable(st.pc, "receiver call with no arguments")
        st.null_check(args[0])
    st.write_heap(effect_head + (bool(returns), args))
    if returns:
        st.stack.append(st.result())


def _putfield(st: SymState, key: tuple, obj: Any, value: Any,
              hook_instr: Any) -> None:
    st.null_check(obj)
    st.write_heap(("putf", key, obj, value, id(hook_instr)))


def step(code: list, st: SymState) -> list[SymState]:
    """Execute ``code[st.pc]`` symbolically; return successor paths.

    Handles the full ISA — pristine ops, standalone quickened ops, and
    every superinstruction — mirroring ``interpret_quick``, the one
    loop that runs both pristine and quickened bodies, exactly
    (including fused null-check placement and live hook reads).
    """
    pc = st.pc
    instr = code[pc]
    op = instr.op
    arg = instr.arg
    width = op_width(op)
    nxt = pc + width
    st.via_fall = True

    # -- pure data movement / arithmetic -------------------------------
    if op is Op.CONST:
        st.stack.append(("c", arg))
    elif op is Op.LOAD:
        st.stack.append(st.locals[arg])
    elif op is Op.STORE:
        st.locals[arg] = st.pop()
    elif op is Op.POP:
        st.pop()
    elif op is Op.DUP:
        st.stack.append(st.stack[-1] if st.stack else st.pop())
    elif op is Op.SWAP:
        b, a = st.pop(), st.pop()
        st.stack += [b, a]
    elif op in _BIN_OPS:
        b, a = st.pop(), st.pop()
        st.stack.append(("bin", _BIN_OPS[op], a, b))
    elif op in _UN_OPS:
        st.stack.append(("un", _UN_OPS[op], st.pop()))
    elif op is Op.NOP:
        pass

    # -- control flow ---------------------------------------------------
    elif op is Op.JUMP:
        st.pc = arg
        st.via_fall = False
        return [st]
    elif op in (Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE):
        cond = st.pop()
        on_taken = op is Op.JUMP_IF_TRUE
        taken, fall = st.fork(), st
        taken.conds.append((cond, on_taken))
        taken.pc = arg
        taken.via_fall = False
        fall.conds.append((cond, not on_taken))
        fall.pc = nxt
        return [taken, fall]
    elif op is Op.RETURN:
        st.ret = ("v", st.pop())
        return [st]
    elif op is Op.RETURN_VOID:
        st.ret = ("void",)
        return [st]

    # -- objects and fields ---------------------------------------------
    elif op is Op.GETFIELD:
        obj = st.pop()
        st.null_check(obj)
        st.stack.append(
            ("fld", field_key(instr.resolved, pc), obj, st.heapver)
        )
    elif op is Op.PUTFIELD:
        value, obj = st.pop(), st.pop()
        _putfield(st, field_key(instr.resolved, pc), obj, value, instr)
    elif op is Op.GETSTATIC:
        if instr.resolved is None:
            raise TVUnprovable(pc, "unresolved static access")
        st.stack.append(("st", instr.resolved, st.heapver))
    elif op is Op.PUTSTATIC:
        if instr.resolved is None:
            raise TVUnprovable(pc, "unresolved static access")
        value = st.pop()
        st.write_heap(("putst", instr.resolved, value, id(instr)))
    elif op is Op.NEW:
        st.effects.append(("alloc", ("obj", arg)))
        obj = st.result()
        st.nonnull.add(obj)
        st.stack.append(obj)
    elif op is Op.INSTANCEOF:
        st.stack.append(("un", ("instanceof", arg), st.pop()))
    elif op is Op.CHECKCAST:
        if not st.stack:
            raise TVUnprovable(pc, "symbolic stack underflow")
        st.effects.append(("cast", arg, st.stack[-1]))

    # -- arrays ----------------------------------------------------------
    elif op is Op.NEWARRAY:
        length = st.pop()
        st.effects.append(("alloc", ("arr", arg, length)))
        ref = st.result()
        st.nonnull.add(ref)
        st.stack.append(ref)
    elif op is Op.ALOAD:
        idx, ref = st.pop(), st.pop()
        st.null_check(ref)
        st.effects.append(("bound", ref, idx))
        st.stack.append(("el", ref, idx, st.heapver))
    elif op is Op.ASTORE:
        value, idx, ref = st.pop(), st.pop(), st.pop()
        st.null_check(ref)
        st.effects.append(("bound", ref, idx))
        st.write_heap(("aset", ref, idx, value))
    elif op is Op.ARRAYLEN:
        ref = st.pop()
        st.null_check(ref)
        st.stack.append(("un", "arraylen", ref))

    # -- calls -----------------------------------------------------------
    elif op is Op.INVOKEVIRTUAL:
        if instr.resolved is None:
            raise TVUnprovable(pc, "unresolved virtual call")
        offset, returns = instr.resolved
        _do_call(st, ("callv", offset), arg[2], returns,
                 receiver_checked=True)
    elif op is Op.INVOKEVIRTUAL_QUICK:
        ic = instr.resolved
        if ic is None:
            raise TVUnprovable(pc, "virtual IC site with no cache cell")
        _do_call(st, ("callv", ic.offset), ic.argc, ic.returns,
                 receiver_checked=True)
    elif op is Op.INVOKEINTERFACE:
        if instr.resolved is None:
            raise TVUnprovable(pc, "unresolved interface call")
        slot, key, returns = instr.resolved
        _do_call(st, ("calli", slot, key), arg[2], returns,
                 receiver_checked=True)
    elif op is Op.INVOKEINTERFACE_QUICK:
        ic = instr.resolved
        if ic is None:
            raise TVUnprovable(pc, "interface IC site with no cache cell")
        _do_call(st, ("calli", ic.slot, ic.key), ic.argc, ic.returns,
                 receiver_checked=True)
    elif op is Op.INVOKESPECIAL:
        if instr.resolved is None:
            raise TVUnprovable(pc, "unresolved special call")
        target_rm, returns = instr.resolved
        _do_call(st, ("calls", id(target_rm)), arg[2], returns,
                 receiver_checked=True)
    elif op is Op.INVOKESTATIC:
        if instr.resolved is None:
            raise TVUnprovable(pc, "unresolved static call")
        cell, returns = instr.resolved
        _do_call(st, ("callst", id(cell)), arg[2], returns,
                 receiver_checked=False)
    elif op is Op.INTRINSIC:
        intr = instr.resolved
        if intr is None:
            raise TVUnprovable(pc, "unresolved intrinsic")
        _do_call(st, ("intr", id(intr)), intr.nargs, intr.returns,
                 receiver_checked=False)

    # -- superinstructions ----------------------------------------------
    elif op is Op.LOAD_GETFIELD:
        obj = st.locals[arg[0]]
        st.null_check(obj)
        st.stack.append(("fld", field_key(arg[1], pc), obj, st.heapver))
    elif op is Op.LOAD_LOAD:
        st.stack += [st.locals[arg[0]], st.locals[arg[1]]]
    elif op is Op.LOAD_CONST:
        st.stack += [st.locals[arg[0]], ("c", arg[1])]
    elif op in (Op.CMP_LT_JF, Op.CMP_EQ_JF):
        b, a = st.pop(), st.pop()
        name = "cmp_lt" if op is Op.CMP_LT_JF else "cmp_eq"
        cond = ("bin", name, a, b)
        taken, fall = st.fork(), st
        taken.conds.append((cond, False))
        taken.pc = arg
        taken.via_fall = False
        fall.conds.append((cond, True))
        fall.pc = nxt
        return [taken, fall]
    elif op is Op.INC:
        i, c = arg
        st.locals[i] = ("bin", "add", st.locals[i], ("c", c))
    elif op is Op.ITER_LT_JF:
        i, limit, target = arg
        cond = ("bin", "cmp_lt", st.locals[i], ("c", limit))
        taken, fall = st.fork(), st
        taken.conds.append((cond, False))
        taken.pc = target
        taken.via_fall = False
        fall.conds.append((cond, True))
        fall.pc = nxt
        return [taken, fall]
    elif op is Op.ADD_STORE:
        b, a = st.pop(), st.pop()
        st.locals[arg] = ("bin", "add", a, b)
    elif op is Op.ADD_PUTFIELD:
        # ``arg`` is the shared pristine PUTFIELD Instr; the interpreter
        # direct-indexes ``obj.fields[arg.resolved]`` and reads the hook
        # live off it.
        b = st.pop()
        value = ("bin", "add", st.pop(), b)
        obj = st.pop()
        _putfield(st, field_key(arg.resolved, pc), obj, value, arg)
    elif op is Op.ADD_RETURN:
        b, a = st.pop(), st.pop()
        st.ret = ("v", ("bin", "add", a, b))
        return [st]
    elif op is Op.LOAD_RETURN:
        st.ret = ("v", st.locals[arg])
        return [st]
    elif op in (Op.LOAD_ADD, Op.LOAD_SUB, Op.LOAD_MUL):
        name = {Op.LOAD_ADD: "add", Op.LOAD_SUB: "sub",
                Op.LOAD_MUL: "mul"}[op]
        a = st.pop()
        st.stack.append(("bin", name, a, st.locals[arg]))
    elif op is Op.GETFIELD_RETURN:
        obj = st.locals[arg[0]]
        st.null_check(obj)
        st.ret = ("v", ("fld", field_key(arg[1], pc), obj, st.heapver))
        return [st]
    elif op is Op.FIELD_INC:
        i, pf, c = arg
        obj = st.locals[i]
        key = field_key(pf.resolved, pc)
        st.null_check(obj)
        value = ("bin", "add", ("fld", key, obj, st.heapver), ("c", c))
        st.write_heap(("putf", key, obj, value, id(pf)))
    else:
        raise TVUnprovable(pc, f"op {op.name} has no symbolic model")

    st.pc = nxt
    return [st]


# ---------------------------------------------------------------------------
# Drivers.

def step_outcomes(code: list, pc: int, depth: int,
                  max_locals: int) -> list[tuple]:
    """Outcomes of executing exactly the (possibly fused) instruction at
    ``pc`` from the generic entry state."""
    outs = []
    for s in step(code, entry_state(pc, depth, max_locals)):
        outs.append(s.outcome())
    return sorted(outs, key=repr)


def region_outcomes(code: list, start: int, end: int, depth: int,
                    max_locals: int) -> list[tuple]:
    """Outcomes of executing the pristine region ``code[start:end)``.

    Execution continues only by sequential fall-through inside the
    region; any branch — even one landing back inside ``[start, end)``
    — exits with that pc as the outcome head, mirroring how the fused
    instruction on the quick side reports its successor.  Regions are
    straight-line idioms (one conditional at most), so this terminates
    in at most ``end - start`` steps per path.
    """
    done: list[tuple] = []
    work = [entry_state(start, depth, max_locals)]
    while work:
        st = work.pop()
        for s in step(code, st):
            if s.ret is not None:
                done.append(s.outcome())
            elif s.via_fall and start <= s.pc < end:
                work.append(s)
            else:
                done.append(s.outcome())
    return sorted(done, key=repr)
