"""Instruction-level control-flow graphs over Jx bytecode.

Unlike :class:`repro.opt.bytecode_cfg.BytecodeCFG` (block-level, built
for the IR lowering and the EQ1 loop-depth weighting), this CFG is
**instruction-granular**: its edges are fall-through and branch
successors, with every terminator flowing into a synthetic EXIT node.
Jx has no catch handlers, so an exception unconditionally unwinds the
method; its clients (escape analysis and liveness) follow normal flow
only, since an unwinding method performs no further program actions.

Both pristine ``info.code`` and quickened ``rm.quick_code`` bodies are
supported: quickened superinstructions cover several slots (widths from
:data:`repro.bytecode.opcodes.OP_WIDTH`) and the fused compare-jumps /
loop idioms carry their targets in packed args
(:func:`repro.bytecode.opcodes.branch_target`).  Fusion is
slot-preserving, so covered slots still hold valid instructions and a
branch landing inside a fused region is a legal CFG node.
"""

from __future__ import annotations

from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import Op, branch_target, op_width

#: Opcodes that end the method (flow straight to EXIT).
_TERMINATORS = frozenset({
    Op.RETURN, Op.RETURN_VOID,
    Op.ADD_RETURN, Op.LOAD_RETURN, Op.GETFIELD_RETURN,
})

#: Conditional branches: both the target and the fall-through survive.
_COND_BRANCHES = frozenset({
    Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE,
    Op.CMP_LT_JF, Op.CMP_EQ_JF, Op.ITER_LT_JF,
})


class InstrCFG:
    """Instruction-level CFG of one code array.

    Nodes are instruction indices ``0..n-1`` plus the synthetic
    :attr:`exit` node ``n``; :attr:`succs` and :attr:`preds` hold the
    control-flow edges.
    """

    def __init__(self, code: list[Instr], *, quick: bool = False) -> None:
        n = len(code)
        self.exit = n
        self.succs: list[list[int]] = [[] for _ in range(n + 1)]
        self.preds: list[list[int]] = [[] for _ in range(n + 1)]
        for i, instr in enumerate(code):
            op = instr.op
            out: list[int] = []
            if op in _TERMINATORS:
                out = [self.exit]
            elif op is Op.JUMP:
                out = [instr.arg]
            elif op in _COND_BRANCHES:
                fall = i + (op_width(op) if quick else 1)
                target = branch_target(instr)
                out = [fall if fall < n else self.exit, target]
            else:
                fall = i + (op_width(op) if quick else 1)
                out = [fall if fall < n else self.exit]
            self.succs[i] = out
            for s in out:
                self.preds[s].append(i)
