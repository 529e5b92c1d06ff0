"""The optimizing compiler's intermediate representation.

A register-transfer IR organized into basic blocks.  Temporaries are
single-assignment by construction; locals (``l0``, ``l1``, ...) and
block-entry stack registers are mutable (classic "register-ized, not
SSA"), which the dataflow passes handle with meet-over-paths analyses.

Instruction catalog (``IRInstr.op``):

===============  ======================================================
``mov``          dest <- args[0]
binary ops       ``add sub mul idiv fdiv irem shl shr band bor bxor``
                 ``lt le gt ge eq ne concat``: dest <- args[0] op args[1]
unary ops        ``neg not i2d d2i``: dest <- op args[0]
``getfield``     dest <- args[0].fields[extra.slot]
``putfield``     args[0].fields[extra.slot] <- args[1]  (extra.hook)
``getstatic``    dest <- jtoc[extra.slot]
``putstatic``    jtoc[extra.slot] <- args[0]  (extra.hook)
``new``          dest <- allocate extra.rc
``newarray``     dest <- array(extra.elem, len=args[0], fill=extra.fill)
``aload``        dest <- args[0].data[args[1]]  (extra.bounds)
``astore``       args[0].data[args[1]] <- args[2]  (extra.bounds)
``arraylen``     dest <- len(args[0].data)
``instanceof``   dest <- args[0] isa extra.rc
``checkcast``    raise unless args[0] isa extra.rc
``callv``        dest? <- virtual call, extra.offset, args=[recv, ...]
``calls``        dest? <- static call through extra.cell
``callsp``       dest? <- special call of extra.rm
``calli``        dest? <- interface call, extra.slot/extra.key
``intr``         dest? <- intrinsic extra.intrinsic
``deoptcheck``   if args[0].tib is not extra.tib: deopt to the
                 interpreter at bytecode extra.pc with args[1:] as the
                 locals named by extra.live (OSR mid-frame bail-out;
                 :mod:`repro.vm.osr`)
===============  ======================================================

Terminators (exactly one, last in each block): ``jump`` (extra.target),
``br`` (args[0]; extra.if_true/extra.if_false), ``ret`` (args optional).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.opt.cfg import predecessors, reverse_postorder

# -- operand kinds ----------------------------------------------------------


class Reg:
    """A virtual register, identified by name.

    Names come from the lowerer, per function: ``l<i>`` for locals,
    ``s<block>_<depth>`` for block-entry stack slots and ``t<n>`` for
    temps numbered from zero in each lowered function.  The inliner
    prefixes a callee's registers with ``in<k>_``, so names stay unique
    within one function.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"%{self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Reg) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


class Const:
    """An immediate operand."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"#{self.value!r}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Const)
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((type(self.value), repr(self.value)))


Operand = Reg | Const


@dataclass
class Extra:
    """Opcode-specific payload; unused fields stay None."""

    slot: int | None = None
    key: str | None = None
    hook: Any = None
    rc: Any = None
    rm: Any = None
    cell: Any = None
    offset: int | None = None
    intrinsic: Any = None
    elem: str | None = None
    fill: Any = None
    bounds: bool = True
    returns: bool = False
    target: int | None = None
    if_true: int | None = None
    if_false: int | None = None
    name: str = ""
    #: Bytecode pc this instruction's state maps back to — the resume
    #: point a deopt transfers the frame to.  Recorded at lowering only
    #: where the interpreter frame is fully reconstructible (operand
    #: stack provably empty); never propagated through inlining (an
    #: inlined callee's pcs are meaningless in the caller's frame).
    pc: int | None = None
    #: Local slots live at ``pc`` (the OSR compensation set), as a
    #: sorted list of indices.
    live: list | None = None
    #: The special TIB a ``deoptcheck`` guards (runtime object; never
    #: serialized — the opt2 pin table carries it symbolically).
    tib: Any = None

    def copy(self) -> "Extra":
        """A fresh payload with the same fields and its own ``live``
        list (one dict copy: about half the constructor's cost)."""
        new = object.__new__(Extra)
        new.__dict__ = self.__dict__.copy()
        if self.live is not None:
            new.live = list(self.live)
        return new


BINARY_OPS = frozenset(
    "add sub mul idiv fdiv irem shl shr band bor bxor "
    "lt le gt ge eq ne concat".split()
)
UNARY_OPS = frozenset("neg not i2d d2i".split())
CALL_OPS = frozenset("callv calls callsp calli intr".split())
TERMINATORS = frozenset("jump br ret".split())

#: Ops with no side effects: deletable when the dest is dead.  Loads are
#: included deliberately: JxVM treats a dead field/array load's potential
#: NPE as deletable (documented deviation from strict Java semantics).
PURE_OPS = (
    BINARY_OPS - {"idiv", "irem", "fdiv"}
) | UNARY_OPS | frozenset({"mov", "getfield", "getstatic", "arraylen",
                           "instanceof"})


class IRInstr:
    """One IR instruction."""

    __slots__ = ("op", "dest", "args", "extra", "line")

    def __init__(
        self,
        op: str,
        dest: Reg | None = None,
        args: list[Operand] | None = None,
        extra: Extra | None = None,
        line: int = 0,
    ) -> None:
        self.op = op
        self.dest = dest
        self.args = args if args is not None else []
        self.extra = extra if extra is not None else Extra()
        self.line = line

    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    @property
    def is_call(self) -> bool:
        return self.op in CALL_OPS

    def uses(self) -> Iterator[Operand]:
        yield from self.args

    def copy(self) -> "IRInstr":
        """A fresh instruction with its own args list and payload."""
        return IRInstr(self.op, self.dest, list(self.args),
                       self.extra.copy(), self.line)

    def __repr__(self) -> str:
        parts = [self.op]
        if self.dest is not None:
            parts.insert(0, f"{self.dest!r} =")
        parts.append(", ".join(repr(a) for a in self.args))
        ex = self.extra
        details = []
        if ex.slot is not None:
            details.append(f"slot={ex.slot}")
        if ex.offset is not None:
            details.append(f"off={ex.offset}")
        if ex.name:
            details.append(ex.name)
        if ex.target is not None:
            details.append(f"->bb{ex.target}")
        if ex.if_true is not None:
            details.append(f"T->bb{ex.if_true} F->bb{ex.if_false}")
        if details:
            parts.append("{" + " ".join(details) + "}")
        return " ".join(p for p in parts if p)


@dataclass
class Block:
    """A basic block: straight-line instructions + one terminator."""

    id: int
    instrs: list[IRInstr] = field(default_factory=list)

    @property
    def terminator(self) -> IRInstr:
        return self.instrs[-1]

    def successors(self) -> list[int]:
        term = self.terminator
        if term.op == "jump":
            return [term.extra.target]
        if term.op == "br":
            return [term.extra.if_true, term.extra.if_false]
        return []

    def __repr__(self) -> str:
        return f"<bb{self.id}: {len(self.instrs)} instrs>"


class IRFunction:
    """One method's IR: parameters, locals, and a block graph.

    The reverse postorder and the predecessor lists are computed on
    first request and kept until the block graph changes.  Every edit
    that can change the graph goes through a method below:
    :meth:`set_entry`, :meth:`set_instrs`, :meth:`set_terminator` and
    :meth:`retarget` drop the cached order; :meth:`new_block` and
    :meth:`remove_block` cannot change it.  A pass that rewrites only
    non-terminator instructions assigns ``block.instrs`` directly.
    """

    def __init__(
        self,
        name: str,
        num_args: int,
        max_locals: int,
        returns_value: bool,
    ) -> None:
        self.name = name
        self.num_args = num_args
        self.max_locals = max_locals
        self.returns_value = returns_value
        self.blocks: dict[int, Block] = {}
        self.entry = 0
        self._next_block_id = 0
        #: Static parameter type tags ("int"/"double"/"bool"/"str"/"ref"),
        #: index-aligned with l0..l(num_args-1); filled by the lowerer and
        #: consumed by type inference.
        self.param_kinds: list[str] = []
        #: The cached reverse postorder and predecessor lists (None
        #: until asked for, and again after each graph edit).
        self._order: tuple[Block, ...] | None = None
        self._preds: dict[int, list[int]] | None = None

    # -- the block graph --------------------------------------------------

    def block_order(self) -> tuple[Block, ...]:
        """Blocks in reverse postorder from the entry."""
        if self._order is None:
            self._order = self._walk()
        return self._order

    def predecessors(self) -> dict[int, list[int]]:
        """Predecessor lists for every reachable block, each in reverse
        postorder.  Callers must not mutate them."""
        if self._preds is None:
            self._preds = predecessors(
                [block.id for block in self.block_order()],
                self._successors,
            )
        return self._preds

    def graph(self) -> tuple[int, list[int], dict[int, list[int]]]:
        """The reachable block graph as :mod:`repro.opt.cfg` takes it:
        the entry, the block ids in reverse postorder, and their
        predecessors."""
        return (self.entry, [b.id for b in self.block_order()],
                self.predecessors())

    def reachable_ids(self) -> set[int]:
        return {b.id for b in self.block_order()}

    def _successors(self, bid: int) -> list[int]:
        return self.blocks[bid].successors()

    def _walk(self) -> tuple[Block, ...]:
        """One depth-first walk of the graph from the entry."""
        blocks = self.blocks
        return tuple(
            blocks[b] for b in reverse_postorder(self.entry, self._successors)
        )

    def _graph_changed(self) -> None:
        self._order = self._preds = None

    # -- graph edits ----------------------------------------------------------

    def new_block(self) -> Block:
        """Add an empty block.  Nothing jumps to it yet, so the cached
        order stands until a terminator names it."""
        block = Block(self._next_block_id)
        self.blocks[block.id] = block
        self._next_block_id += 1
        return block

    def remove_block(self, bid: int) -> None:
        """Delete block ``bid``, which the entry must not reach (the
        cached order covers only blocks it reaches)."""
        del self.blocks[bid]

    def set_entry(self, bid: int) -> None:
        self.entry = bid
        self._graph_changed()

    def set_instrs(self, block: Block, instrs: list[IRInstr]) -> None:
        """Replace ``block``'s instructions, terminator included."""
        block.instrs = instrs
        self._graph_changed()

    def set_terminator(self, block: Block, term: IRInstr) -> None:
        block.instrs[-1] = term
        self._graph_changed()

    def retarget(self, term: IRInstr, edge: str, target: int) -> None:
        """Point ``term``'s ``edge`` (``"target"``, ``"if_true"`` or
        ``"if_false"``) at block ``target``, in place."""
        setattr(term.extra, edge, target)
        self._graph_changed()

    # -- queries ----------------------------------------------------------------

    def local_reg(self, index: int) -> Reg:
        return Reg(f"l{index}")

    def instr_count(self) -> int:
        return sum(len(b.instrs) for b in self.blocks.values())

    def pretty(self) -> str:
        lines = [f"func {self.name} (args={self.num_args})"]
        for block in self.block_order():
            lines.append(f"bb{block.id}:")
            for instr in block.instrs:
                lines.append(f"  {instr!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<IRFunction {self.name}: {len(self.blocks)} blocks>"


def clone_ir(fn: IRFunction) -> IRFunction:
    """Deep-copy an IRFunction so passes can mutate the copy freely.

    Registers and constant operands are immutable value objects and are
    shared; instructions and Extra payloads are fresh.  Block ids are
    preserved, so branch targets copy over unchanged.
    """
    out = IRFunction(fn.name, fn.num_args, fn.max_locals, fn.returns_value)
    out.entry = fn.entry
    out.param_kinds = list(fn.param_kinds)
    out._next_block_id = fn._next_block_id
    for bid, block in fn.blocks.items():
        out.blocks[bid] = Block(bid, [instr.copy() for instr in block.instrs])
    return out
