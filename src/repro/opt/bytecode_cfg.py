"""Basic blocks over *bytecode* (pre-IR).

Used by the bytecode-to-IR lowering (block partition), the offline
stack simulation (block leaders) and the offline state-field analysis
(paper EQ1 needs the loop nesting level ``Li`` of each branch and
assignment instruction).

Blocks come from the successor rule
(:func:`repro.bytecode.opcodes.successors`); dominators and natural loops
from :mod:`repro.opt.cfg`, computed on first use because only EQ1 asks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.bytecode.classfile import MethodInfo
from repro.bytecode.opcodes import successors
from repro.opt.cfg import loop_depths, predecessors, reverse_postorder


@dataclass
class BcBlock:
    """A bytecode basic block ``[start, end)``."""

    id: int
    start: int
    end: int
    succs: list[int] = field(default_factory=list)


class BytecodeCFG:
    """The basic blocks of one method's bytecode."""

    def __init__(self, method: MethodInfo) -> None:
        self.method = method
        code = method.code
        n = len(code)
        leaders = {0}
        for i, instr in enumerate(code):
            succs = successors(instr, i)
            if instr.is_branch or not succs:
                # A branch or a return ends its block: the next slot and
                # each successor start one.
                leaders.update(succs)
                leaders.add(i + 1)
        starts = sorted(s for s in leaders if s < n)
        block_at = {start: idx for idx, start in enumerate(starts)}
        self.blocks = [
            BcBlock(idx, start, end)
            for idx, (start, end) in enumerate(zip(starts, starts[1:] + [n]))
        ]
        self.block_of_instr = [0] * n
        for block in self.blocks:
            for i in range(block.start, block.end):
                self.block_of_instr[i] = block.id
            last = block.end - 1
            # Fall-through first, then the branch target.
            block.succs = [block_at[s] for s in successors(code[last], last)]

    def _succs(self, bid: int) -> list[int]:
        return self.blocks[bid].succs

    @cached_property
    def order(self) -> list[int]:
        """Reachable block ids in reverse postorder from block 0."""
        return reverse_postorder(0, self._succs)

    def graph(self) -> tuple[int, list[int], dict[int, list[int]]]:
        """The reachable block graph as :mod:`repro.opt.cfg` takes it."""
        return 0, self.order, predecessors(self.order, self._succs)

    @cached_property
    def loop_depth(self) -> list[int]:
        """Loop nesting depth of every instruction (0 when unreachable)."""
        depth = loop_depths(*self.graph())
        return [depth.get(b, 0) for b in self.block_of_instr]

    def instr_loop_depth(self, index: int) -> int:
        return self.loop_depth[index]
