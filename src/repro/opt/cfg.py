"""Dominators and natural loops of a control-flow graph.

One implementation serves both block graphs the VM builds: the IR's
(:meth:`IRFunction.graph <repro.opt.ir.IRFunction.graph>`; codegen
walks its dominator tree and emits each natural loop as a ``while``)
and the bytecode's
(:meth:`BytecodeCFG.graph <repro.opt.bytecode_cfg.BytecodeCFG.graph>`;
paper EQ1 weighs each site by its loop depth).  A graph is given as its
entry, its reachable nodes in reverse postorder, and each reachable
node's reachable predecessors, so an unreachable node is in no loop.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

#: Each reachable node's reachable predecessors.
Preds = Mapping[int, Sequence[int]]
#: A node's successors, asked only of nodes the walk reaches.
Succs = Callable[[int], Iterable[int]]


def reverse_postorder(entry: int, succs: Succs) -> list[int]:
    """The nodes reachable from ``entry``, in reverse postorder of one
    depth-first walk that visits successors in ``succs(node)`` order."""
    seen = {entry}
    postorder: list[int] = []
    stack = [(entry, iter(succs(entry)))]
    while stack:
        cur, succ_iter = stack[-1]
        for s in succ_iter:
            if s not in seen:
                seen.add(s)
                stack.append((s, iter(succs(s))))
                break
        else:
            postorder.append(cur)
            stack.pop()
    postorder.reverse()
    return postorder


def predecessors(order: Sequence[int], succs: Succs) -> dict[int, list[int]]:
    """Predecessor lists of the nodes in ``order`` (a reverse
    postorder), each listed in that order."""
    preds: dict[int, list[int]] = {b: [] for b in order}
    for b in order:
        for s in succs(b):
            preds[s].append(b)
    return preds


def immediate_dominators(entry: int, order: Sequence[int],
                         preds: Preds) -> dict[int, int | None]:
    """Iterative dominator computation (Cooper, Harvey and Kennedy) over
    the reachable graph; the entry's idom is None."""
    index = {b: i for i, b in enumerate(order)}
    idom: dict[int, int | None] = {entry: entry}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for b in order:
            if b == entry:
                continue
            candidates = [p for p in preds[b] if p in idom]
            if not candidates:
                continue
            new_idom = candidates[0]
            for p in candidates[1:]:
                new_idom = intersect(new_idom, p)
            if idom.get(b) != new_idom:
                idom[b] = new_idom
                changed = True
    idom[entry] = None
    return idom


def dominates(idom: Mapping[int, int | None], a: int, b: int) -> bool:
    cur: int | None = b
    while cur is not None:
        if cur == a:
            return True
        cur = idom.get(cur)
    return False


def natural_loops(entry: int, order: Sequence[int], preds: Preds,
                  idom: Mapping[int, int | None] | None = None,
                  ) -> list[tuple[int, set[int]]]:
    """``(header, body)`` pairs; back edges to one header are merged.
    ``idom`` is the graph's :func:`immediate_dominators`, computed here
    when the caller has not already."""
    if idom is None:
        idom = immediate_dominators(entry, order, preds)
    by_header: dict[int, set[int]] = {}
    for header in order:
        for latch in preds[header]:
            if dominates(idom, header, latch):
                body = by_header.setdefault(header, {header})
                work = [latch]
                while work:
                    b = work.pop()
                    if b in body:
                        continue
                    body.add(b)
                    work.extend(preds[b])
    return sorted(by_header.items())


def loop_depths(entry: int, order: Sequence[int],
                preds: Preds) -> dict[int, int]:
    """Loop nesting depth per reachable node."""
    depths = dict.fromkeys(order, 0)
    for _, body in natural_loops(entry, order, preds):
        for b in body:
            depths[b] += 1
    return depths
