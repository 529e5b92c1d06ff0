"""CFG utilities over the IR: dominators, natural loops, loop depths.

These mirror :mod:`repro.opt.bytecode_cfg` but operate on
:class:`~repro.opt.ir.IRFunction` block graphs (codegen nests its
dispatch by natural loop).  They read the function's cached reverse
postorder and predecessor lists (:meth:`IRFunction.block_order`,
:meth:`IRFunction.predecessors`), which the function keeps until an edit
method changes its graph.
"""

from __future__ import annotations

from repro.opt.ir import IRFunction


def immediate_dominators(fn: IRFunction) -> dict[int, int | None]:
    """Iterative dominator computation (CHK) over the reachable graph."""
    rpo = [b.id for b in fn.block_order()]
    order = {b: i for i, b in enumerate(rpo)}
    preds = fn.predecessors()
    idom: dict[int, int | None] = {fn.entry: fn.entry}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while order[a] > order[b]:
                a = idom[a]  # type: ignore[assignment]
            while order[b] > order[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for b in rpo:
            if b == fn.entry:
                continue
            candidates = [p for p in preds.get(b, []) if p in idom]
            if not candidates:
                continue
            new_idom = candidates[0]
            for p in candidates[1:]:
                new_idom = intersect(new_idom, p)
            if idom.get(b) != new_idom:
                idom[b] = new_idom
                changed = True
    idom[fn.entry] = None
    return idom


def dominates(idom: dict[int, int | None], a: int, b: int) -> bool:
    cur: int | None = b
    while cur is not None:
        if cur == a:
            return True
        cur = idom.get(cur)
    return False


def natural_loops(fn: IRFunction) -> list[tuple[int, set[int]]]:
    """``(header, body)`` pairs; back edges to one header are merged."""
    idom = immediate_dominators(fn)
    preds = fn.predecessors()
    by_header: dict[int, set[int]] = {}
    for block in fn.block_order():
        for s in block.successors():
            if dominates(idom, s, block.id):
                body = by_header.setdefault(s, {s})
                work = [block.id]
                while work:
                    b = work.pop()
                    if b in body:
                        continue
                    body.add(b)
                    work.extend(preds.get(b, []))
    return sorted(by_header.items())


def loop_depths(fn: IRFunction) -> dict[int, int]:
    """Loop nesting depth per reachable block id."""
    depths = {bid: 0 for bid in fn.reachable_ids()}
    for _, body in natural_loops(fn):
        for b in body:
            depths[b] += 1
    return depths
