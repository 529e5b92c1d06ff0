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
Block states also leave out every register that no ``mov``, unary or
binary instruction defines: calls, loads and allocations make their
destinations NAC, so such a register reads as NAC at every use whether
a state carries it or not.
Dropping registers can change which blocks the worklist revisits, not
the fixpoint it reaches: when every register is assigned on each path
to its reads, the transfer functions are monotone and the answer does
not depend on visit order.  The order only sets the cost: taking the
queued block earliest in reverse postorder carries a change at a loop
header through the whole body before the next trip round the loop.
"""

from __future__ import annotations

import heapq
from typing import Any

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


def _tracked_registers(blocks) -> tuple[set[str], dict[int, list[str]]]:
    """The registers block states carry (upward-exposed ones that some
    ``mov``, unary or binary instruction defines), and per block the
    registers it writes that are not carried (dropped from its
    out-state)."""
    exposed: set[str] = set()
    may_be_const: set[str] = set()
    writes: dict[int, set[str]] = {}
    for block in blocks:
        written: set[str] = set()
        for instr in block.instrs:
            for a in instr.args:
                if isinstance(a, Reg) and a.name not in written:
                    exposed.add(a.name)
            dest = instr.dest
            if dest is not None:
                written.add(dest.name)
                op = instr.op
                if op == "mov" or op in BINARY_OPS or op in UNARY_OPS:
                    may_be_const.add(dest.name)
        writes[block.id] = written
    tracked = exposed & may_be_const
    local = {
        bid: [name for name in written if name not in tracked]
        for bid, written in writes.items()
    }
    return tracked, local


def constant_propagation(fn: IRFunction) -> int:
    """Run the analysis + rewrite; returns number of operands rewritten."""
    preds = fn.predecessors()
    blocks = fn.block_order()
    order = [b.id for b in blocks]
    tracked, local = _tracked_registers(blocks)
    entry_state: dict[str, Any] = {
        f"l{i}": NAC for i in range(fn.num_args) if f"l{i}" in tracked
    }
    in_states: dict[int, dict[str, Any]] = {fn.entry: entry_state}
    out_states: dict[int, dict[str, Any]] = {}

    # A worklist that always takes the queued block earliest in reverse
    # postorder (a heap of positions), so a change at a loop header
    # reaches the whole body in one pass; seeded with every block.
    position = {bid: i for i, bid in enumerate(order)}
    work = list(range(len(order)))
    queued = set(order)
    while work:
        bid = order[heapq.heappop(work)]
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
                    heapq.heappush(work, position[s])

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
