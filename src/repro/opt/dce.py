"""Dead code elimination via backward liveness.

A register is live if some path reaches a use before a redefinition.
Pure instructions (see :data:`repro.opt.ir.PURE_OPS`) whose destination
is dead are deleted.  Loads are treated as pure — a deleted dead load's
potential NullPointerException is a documented deviation from strict
Java semantics (the paper's optimizer makes the same class of
assumptions when deleting specialized-away code).
"""

from __future__ import annotations

from collections import deque

from repro.opt.ir import IRFunction, PURE_OPS, Reg


def _block_liveness(fn: IRFunction) -> dict[int, set[str]]:
    """Fixpoint live-out sets per block."""
    preds = fn.predecessors()
    order = [b.id for b in fn.block_order()]
    live_in: dict[int, set[str]] = {bid: set() for bid in order}
    live_out: dict[int, set[str]] = {bid: set() for bid in order}

    work = deque(reversed(order))
    queued = set(order)
    while work:
        bid = work.popleft()
        queued.discard(bid)
        block = fn.blocks[bid]
        out: set[str] = set()
        for s in block.successors():
            out |= live_in.get(s, set())
        live_out[bid] = out
        new_in = set(out)
        for instr in reversed(block.instrs):
            if instr.dest is not None:
                new_in.discard(instr.dest.name)
            for a in instr.args:
                if isinstance(a, Reg):
                    new_in.add(a.name)
        if new_in != live_in[bid]:
            live_in[bid] = new_in
            for p in preds.get(bid, []):
                if p not in queued:
                    queued.add(p)
                    work.append(p)
    return live_out


def dead_code_elimination(fn: IRFunction) -> int:
    """Delete pure instructions with dead destinations; returns count."""
    removed_total = 0
    while True:
        live_out = _block_liveness(fn)
        removed = 0
        for block in fn.block_order():
            live = set(live_out[block.id])
            kept = []
            for instr in reversed(block.instrs):
                dest = instr.dest
                if (
                    dest is not None
                    and dest.name not in live
                    and instr.op in PURE_OPS
                ):
                    removed += 1
                    continue
                if dest is not None:
                    live.discard(dest.name)
                for a in instr.args:
                    if isinstance(a, Reg):
                        live.add(a.name)
                kept.append(instr)
            kept.reverse()
            block.instrs = kept
        removed_total += removed
        if not removed:
            return removed_total
