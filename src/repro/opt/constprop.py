"""Global constant propagation.

A forward meet-over-paths dataflow on the (non-SSA) register IR:
lattice per register is Top (unassigned on this path) / Const(v) /
NAC (not-a-constant).  After the fixpoint, a rewriting sweep replaces
register uses that are constant on *every* path with immediates and
re-folds; the paper leans on exactly this to let specialized state
fields erase dispatch chains (constant propagation is the first
conventional optimization the mutation framework enables, §1).

Block states are sparse: they carry only the registers some block reads
before writing them (*upward-exposed* registers).  Every other register
is written before it is read wherever it is read, so its value at a
block boundary can never reach a use; a block's out-state is its
in-state plus its own writes to exposed registers.  Block-local temps
therefore never ride along through the meet, and each sweep costs the
exposed set per block instead of every register the function assigns.
Dropping the others can change which blocks the worklist revisits, not
the fixpoint it reaches: when every register is assigned on each path
to its reads, the transfer functions are monotone and the answer does
not depend on visit order.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.opt.cfg import predecessors
from repro.opt.fold import NoFold, fold_op
from repro.opt.ir import (
    BINARY_OPS,
    Const,
    IRFunction,
    Reg,
    UNARY_OPS,
)

#: Bottom marker: register holds different values on different paths.
NAC = object()


def _meet_states(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Pointwise meet; a missing key is Top (identity)."""
    out = dict(a)
    for name, val in b.items():
        if name not in out:
            out[name] = val
        elif out[name] is NAC or val is NAC:
            out[name] = NAC
        elif not _const_same(out[name], val):
            out[name] = NAC
    return out


def _const_same(a: Any, b: Any) -> bool:
    return type(a) is type(b) and a == b


def _transfer_instr(instr, state: dict[str, Any]) -> None:
    if instr.dest is None:
        return
    name = instr.dest.name
    op = instr.op
    if op == "mov":
        src = instr.args[0]
        if isinstance(src, Const):
            state[name] = src.value
        else:
            state[name] = state.get(src.name, NAC)
        return
    if op in BINARY_OPS or op in UNARY_OPS:
        vals = []
        all_const = True
        for a in instr.args:
            if isinstance(a, Const):
                vals.append(a.value)
            else:
                v = state.get(a.name, NAC)
                if v is NAC:
                    all_const = False
                    break
                vals.append(v)
        if all_const:
            try:
                state[name] = fold_op(op, vals)
                return
            except NoFold:
                pass
        state[name] = NAC
        return
    # Calls, loads, allocations: unknown.
    state[name] = NAC


def _exposed_registers(blocks) -> tuple[set[str], dict[int, list[str]]]:
    """The upward-exposed registers of the function, and per block the
    registers it writes that are not exposed anywhere (its local temps,
    dropped from its out-state)."""
    exposed: set[str] = set()
    writes: dict[int, set[str]] = {}
    for block in blocks:
        written: set[str] = set()
        for instr in block.instrs:
            for a in instr.args:
                if isinstance(a, Reg) and a.name not in written:
                    exposed.add(a.name)
            if instr.dest is not None:
                written.add(instr.dest.name)
        writes[block.id] = written
    local = {
        bid: [name for name in written if name not in exposed]
        for bid, written in writes.items()
    }
    return exposed, local


def constant_propagation(fn: IRFunction) -> int:
    """Run the analysis + rewrite; returns number of operands rewritten."""
    preds = predecessors(fn)
    blocks = fn.block_order()
    order = [b.id for b in blocks]
    exposed, local = _exposed_registers(blocks)
    entry_state: dict[str, Any] = {
        f"l{i}": NAC for i in range(fn.num_args) if f"l{i}" in exposed
    }
    in_states: dict[int, dict[str, Any]] = {fn.entry: entry_state}
    out_states: dict[int, dict[str, Any]] = {}

    # A FIFO worklist with a membership set, seeded in reverse postorder.
    work = deque(order)
    queued = set(order)
    while work:
        bid = work.popleft()
        queued.discard(bid)
        if bid == fn.entry:
            in_state = dict(entry_state)
        else:
            incoming = [
                out_states[p] for p in preds.get(bid, []) if p in out_states
            ]
            if not incoming:
                continue
            in_state = incoming[0]
            for other in incoming[1:]:
                in_state = _meet_states(in_state, other)
        in_states[bid] = in_state
        state = dict(in_state)
        for instr in fn.blocks[bid].instrs:
            _transfer_instr(instr, state)
        for name in local[bid]:
            del state[name]
        if out_states.get(bid) != state:
            out_states[bid] = state
            for s in fn.blocks[bid].successors():
                if s not in queued:
                    queued.add(s)
                    work.append(s)

    # Rewrite sweep.
    rewritten = 0
    for bid in order:
        state = dict(in_states.get(bid, {}))
        for instr in fn.blocks[bid].instrs:
            new_args = []
            for a in instr.args:
                if isinstance(a, Reg):
                    v = state.get(a.name, NAC)
                    if v is not NAC:
                        new_args.append(Const(v))
                        rewritten += 1
                        continue
                new_args.append(a)
            instr.args = new_args
            _transfer_instr(instr, state)
    return rewritten
