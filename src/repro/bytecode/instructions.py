"""Instruction objects for Jx bytecode.

An :class:`Instr` is one executable unit in a method's linear code array.
Branch targets are absolute indices into that array.  Instructions carry a
``resolved`` slot that the linker fills in with pre-resolved runtime
metadata (vtable offsets, field slots, intrinsic callables) so the
interpreter does not re-resolve names on every execution.
"""

from __future__ import annotations

from typing import Any

from repro.bytecode.opcodes import CALL_OPS, OP_INFO, Op

_BRANCHES = frozenset(op for op, info in OP_INFO.items() if info.is_branch)
_RETURN = Op.RETURN


class Instr:
    """A single bytecode instruction.

    Attributes:
        op: The opcode.
        arg: The immediate argument (literal, local index, name tuple,
            branch target), or ``None`` for argument-less opcodes.
        line: Source line number for diagnostics, or 0.
        resolved: Link-time resolution product; filled by the linker.
        state_hook: Set by the linker on PUTFIELD/PUTSTATIC instructions
            that write a *state field* of a mutable class; the interpreter
            and compiled code invoke the mutation manager at these writes
            (paper Fig. 4).
    """

    __slots__ = ("op", "arg", "line", "resolved", "state_hook")

    def __init__(self, op: Op, arg: Any = None, line: int = 0) -> None:
        self.op = op
        self.arg = arg
        self.line = line
        self.resolved: Any = None
        self.state_hook: Any = None

    def copy(self) -> "Instr":
        """Return an unlinked copy of this instruction."""
        return Instr(self.op, self.arg, self.line)

    @property
    def is_branch(self) -> bool:
        return self.op in _BRANCHES

    @property
    def is_call(self) -> bool:
        return self.op in CALL_OPS

    def __repr__(self) -> str:
        info = OP_INFO[self.op]
        if self.arg is None:
            return f"<{info.mnemonic}>"
        return f"<{info.mnemonic} {self.arg!r}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instr):
            return NotImplemented
        return self.op == other.op and self.arg == other.arg

    def __hash__(self) -> int:
        return hash((self.op, repr(self.arg)))


def relink_targets(code: list[Instr], index_map: dict[int, int]) -> None:
    """Rewrite branch targets through ``index_map`` after code motion.

    ``index_map`` maps old instruction indices to new ones.  Used by code
    transforms that delete or reorder instructions.
    """
    for instr in code:
        if instr.is_branch and instr.op != _RETURN and instr.arg is not None:
            instr.arg = index_map[instr.arg]
