"""A generic worklist fixed-point dataflow engine.

The engine is deliberately graph-shaped rather than bytecode-shaped: it
takes explicit successor lists (usually one
:func:`repro.bytecode.opcodes.successors` tuple per instruction, but the
IR block graph or any other digraph works), a join, and a per-node
transfer function, and iterates to a fixed point.  Clients configure the
lattice entirely through ``join``/``transfer``/``top`` — booleans with
AND (must analyses), frozensets with union (may analyses), or arbitrary
tuples.

Directions:

* :func:`solve_forward` — ``in[i] = join(out[p] for p in preds(i))``,
  ``out[i] = transfer(i, in[i])``.  Returns the *in* states.
* :func:`solve_backward` — ``out[i] = join(in[s] for s in succs(i))``,
  ``in[i] = transfer(i, out[i])``.  Returns the *in* states.

Termination requires the usual conditions: a join that only moves down
(or up) a finite lattice and a monotone transfer.  All shipped clients
use finite tag sets or booleans.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Mapping, Sequence

Transfer = Callable[[int, Any], Any]
Join = Callable[[Any, Any], Any]


def _invert(succs: Sequence[Sequence[int]]) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in succs]
    for i, out in enumerate(succs):
        for s in out:
            preds[s].append(i)
    return preds


def solve_forward(
    succs: Sequence[Sequence[int]],
    transfer: Transfer,
    join: Join,
    boundary: Mapping[int, Any],
) -> list[Any]:
    """Forward fixed point; returns the entry state of every node.

    ``boundary`` seeds the entry states (typically ``{0: entry_state}``).
    Nodes never reached from a boundary node keep state ``None``
    (unreachable ⊤); ``join`` is only called on two non-``None`` states.
    """
    n = len(succs)
    in_states: list[Any] = [None] * n
    for node, state in boundary.items():
        in_states[node] = state
    work = deque(boundary)
    queued = set(work)
    while work:
        i = work.popleft()
        queued.discard(i)
        out = transfer(i, in_states[i])
        for s in succs[i]:
            merged = out if in_states[s] is None else join(in_states[s], out)
            if merged != in_states[s]:
                in_states[s] = merged
                if s not in queued:
                    queued.add(s)
                    work.append(s)
    return in_states


def solve_backward(
    succs: Sequence[Sequence[int]],
    transfer: Transfer,
    join: Join,
    top: Any,
    boundary: Mapping[int, Any],
) -> list[Any]:
    """Backward fixed point; returns the entry state of every node.

    All nodes start at ``top`` (the optimistic value); ``boundary``
    pins the states of exit-like nodes.  ``transfer(i, out)`` maps a
    node's joined successor state to its entry state.
    """
    n = len(succs)
    preds = _invert(succs)
    in_states: list[Any] = [top] * n
    for node, state in boundary.items():
        in_states[node] = state
    work = deque(range(n))
    queued = set(work)
    while work:
        i = work.popleft()
        queued.discard(i)
        if i in boundary:
            continue
        out = top
        for s in succs[i]:
            out = join(out, in_states[s])
        new = transfer(i, out)
        if new != in_states[i]:
            in_states[i] = new
            for p in preds[i]:
                if p not in queued:
                    queued.add(p)
                    work.append(p)
    return in_states
