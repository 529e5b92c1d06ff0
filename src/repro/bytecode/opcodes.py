"""The Jx bytecode instruction set.

Jx bytecode is a small stack-machine ISA in the spirit of JVM bytecode.
It is deliberately symbolic: call and field instructions carry class /
member *names*, which the linker (:mod:`repro.vm.linker`) resolves to
offsets and slots before execution.  This mirrors the constant-pool
resolution step of a real JVM while keeping the code model simple.

Each opcode has a :class:`OpInfo` record describing its stack effect,
which the structural verifier (:mod:`repro.bytecode.verify`) and the
bytecode-to-IR lowering (:mod:`repro.opt.lowering`) both rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Op(enum.IntEnum):
    """Opcode numbering for Jx bytecode instructions."""

    # -- constants and locals ------------------------------------------------
    CONST = 1          # arg: literal value (int/float/bool/str/None) -> push
    LOAD = 2           # arg: local index -> push locals[i]
    STORE = 3          # arg: local index; pop -> locals[i]

    # -- stack manipulation --------------------------------------------------
    POP = 10
    DUP = 11
    SWAP = 12

    # -- arithmetic ----------------------------------------------------------
    ADD = 20           # numeric add
    SUB = 21
    MUL = 22
    IDIV = 23          # integer division (Java truncation semantics)
    FDIV = 24          # floating division
    IREM = 25          # integer remainder (Java semantics)
    NEG = 26
    I2D = 27           # int -> double
    D2I = 28           # double -> int (truncate)

    # -- bitwise / shifts ----------------------------------------------------
    SHL = 30
    SHR = 31           # arithmetic shift right
    BAND = 32
    BOR = 33
    BXOR = 34

    # -- comparisons and boolean ---------------------------------------------
    CMP_LT = 40
    CMP_LE = 41
    CMP_GT = 42
    CMP_GE = 43
    CMP_EQ = 44        # works on numbers, bools, strings, refs (identity)
    CMP_NE = 45
    NOT = 46

    # -- strings --------------------------------------------------------------
    CONCAT = 50        # pop b, a -> push str(a) + str(b) with Java-ish coercion

    # -- control flow ----------------------------------------------------------
    JUMP = 60          # arg: target instruction index
    JUMP_IF_TRUE = 61
    JUMP_IF_FALSE = 62
    RETURN = 63        # pop return value
    RETURN_VOID = 64

    # -- objects ----------------------------------------------------------------
    NEW = 70           # arg: class name -> push fresh instance (fields defaulted)
    GETFIELD = 71      # arg: (class name, field name); pop ref -> push value
    PUTFIELD = 72      # arg: (class name, field name); pop value, ref
    GETSTATIC = 73     # arg: (class name, field name) -> push value
    PUTSTATIC = 74     # arg: (class name, field name); pop value
    INVOKEVIRTUAL = 75  # arg: (class name, method name, nargs incl. receiver)
    INVOKESPECIAL = 76  # arg: (class name, method name, nargs incl. receiver)
    INVOKESTATIC = 77  # arg: (class name, method name, nargs)
    INVOKEINTERFACE = 78  # arg: (interface name, method name, nargs incl. recv)
    INSTANCEOF = 79    # arg: class name; pop ref -> push bool
    CHECKCAST = 80     # arg: class name; pop ref -> push ref or raise

    # -- arrays --------------------------------------------------------------
    NEWARRAY = 90      # arg: element type name; pop length -> push array
    ALOAD = 91         # pop index, array -> push element
    ASTORE = 92        # pop value, index, array
    ARRAYLEN = 93      # pop array -> push length

    # -- intrinsics ----------------------------------------------------------
    INTRINSIC = 100    # arg: (name, nargs) -> pop nargs, push result (or None)

    # -- no-op / markers -------------------------------------------------------
    NOP = 110

    # -- quickened forms (runtime-only; never appear in ``info.code``) ---------
    # The quickener (:mod:`repro.bytecode.quicken`) rewrites resolved
    # virtual and interface calls into these in a method's ``quick_code``
    # shadow array.  They are never verified, lowered, or persisted.
    INVOKEVIRTUAL_QUICK = 121   # resolved: a TIB-keyed VirtualIC cell
    INVOKEINTERFACE_QUICK = 122  # resolved: a TIB-keyed InterfaceIC cell

    # -- superinstructions (fused adjacent pairs, runtime-only) ----------------
    # Chosen from the dynamic adjacent-pair histogram over salarydb +
    # jbb2000 (LOAD+GETFIELD 10.1%, LOAD+LOAD 6.5%, LOAD+CONST 3.7%,
    # CMP_EQ+JUMP_IF_FALSE 3.2%, CMP_LT+JUMP_IF_FALSE 2.9%).
    LOAD_GETFIELD = 130  # arg: (local index, field slot, field name)
    LOAD_LOAD = 131      # arg: (local index, local index)
    LOAD_CONST = 132     # arg: (local index, literal)
    CMP_LT_JF = 133      # arg: branch target; pop b, a; jump unless a < b
    CMP_EQ_JF = 134      # arg: branch target; pop b, a; jump unless a == b

    # -- idiom superinstructions (fused straight-line sequences) ---------------
    # Loop idioms the Jx front end emits for every counted loop, plus the
    # accumulate-into-target tails; fusing them removes whole dispatch
    # sequences (an INC site is four instructions collapsed into one with
    # no stack traffic at all).
    INC = 140            # LOAD i/CONST c/ADD/STORE i; arg: (i, c)
    ITER_LT_JF = 141     # LOAD i/CONST c/CMP_LT/JF; arg: (i, c, target)
    ADD_STORE = 142      # ADD/STORE i; arg: i; pop b, a -> locals[i] = a + b
    ADD_PUTFIELD = 143   # ADD/PUTFIELD; arg: the shared PUTFIELD Instr
    ADD_RETURN = 144     # ADD/RETURN; pop b, a -> return a + b
    LOAD_RETURN = 145    # LOAD i/RETURN; arg: i -> return locals[i]
    LOAD_ADD = 146       # LOAD i/ADD; arg: i -> stack[-1] += locals[i]
    LOAD_SUB = 147       # LOAD i/SUB; arg: i -> stack[-1] -= locals[i]
    LOAD_MUL = 148       # LOAD i/MUL; arg: i -> stack[-1] *= locals[i]
    GETFIELD_RETURN = 149  # LOAD i/GETFIELD f/RETURN (accessor body);
    #                        arg: (i, slot, fname) -> return obj field
    FIELD_INC = 150      # LOAD i/LOAD i/GETFIELD f/CONST c/ADD/
    #                      PUTFIELD f (field increment); arg: (i, pf, c)


#: Placeholder for "stack effect depends on the instruction argument".
VARIABLE = None


@dataclass(frozen=True)
class OpInfo:
    """Static metadata about one opcode.

    ``pops``/``pushes`` of :data:`VARIABLE` means the effect depends on
    the instruction argument (calls and intrinsics).
    """

    mnemonic: str
    pops: int | None
    pushes: int | None
    is_branch: bool = False
    is_terminator: bool = False
    has_arg: bool = True


OP_INFO: dict[Op, OpInfo] = {
    Op.CONST: OpInfo("const", 0, 1),
    Op.LOAD: OpInfo("load", 0, 1),
    Op.STORE: OpInfo("store", 1, 0),
    Op.POP: OpInfo("pop", 1, 0, has_arg=False),
    Op.DUP: OpInfo("dup", 1, 2, has_arg=False),
    Op.SWAP: OpInfo("swap", 2, 2, has_arg=False),
    Op.ADD: OpInfo("add", 2, 1, has_arg=False),
    Op.SUB: OpInfo("sub", 2, 1, has_arg=False),
    Op.MUL: OpInfo("mul", 2, 1, has_arg=False),
    Op.IDIV: OpInfo("idiv", 2, 1, has_arg=False),
    Op.FDIV: OpInfo("fdiv", 2, 1, has_arg=False),
    Op.IREM: OpInfo("irem", 2, 1, has_arg=False),
    Op.NEG: OpInfo("neg", 1, 1, has_arg=False),
    Op.I2D: OpInfo("i2d", 1, 1, has_arg=False),
    Op.D2I: OpInfo("d2i", 1, 1, has_arg=False),
    Op.SHL: OpInfo("shl", 2, 1, has_arg=False),
    Op.SHR: OpInfo("shr", 2, 1, has_arg=False),
    Op.BAND: OpInfo("band", 2, 1, has_arg=False),
    Op.BOR: OpInfo("bor", 2, 1, has_arg=False),
    Op.BXOR: OpInfo("bxor", 2, 1, has_arg=False),
    Op.CMP_LT: OpInfo("cmp_lt", 2, 1, has_arg=False),
    Op.CMP_LE: OpInfo("cmp_le", 2, 1, has_arg=False),
    Op.CMP_GT: OpInfo("cmp_gt", 2, 1, has_arg=False),
    Op.CMP_GE: OpInfo("cmp_ge", 2, 1, has_arg=False),
    Op.CMP_EQ: OpInfo("cmp_eq", 2, 1, has_arg=False),
    Op.CMP_NE: OpInfo("cmp_ne", 2, 1, has_arg=False),
    Op.NOT: OpInfo("not", 1, 1, has_arg=False),
    Op.CONCAT: OpInfo("concat", 2, 1, has_arg=False),
    Op.JUMP: OpInfo("jump", 0, 0, is_branch=True, is_terminator=True),
    Op.JUMP_IF_TRUE: OpInfo("jump_if_true", 1, 0, is_branch=True),
    Op.JUMP_IF_FALSE: OpInfo("jump_if_false", 1, 0, is_branch=True),
    Op.RETURN: OpInfo("return", 1, 0, is_terminator=True, has_arg=False),
    Op.RETURN_VOID: OpInfo("return_void", 0, 0, is_terminator=True, has_arg=False),
    Op.NEW: OpInfo("new", 0, 1),
    Op.GETFIELD: OpInfo("getfield", 1, 1),
    Op.PUTFIELD: OpInfo("putfield", 2, 0),
    Op.GETSTATIC: OpInfo("getstatic", 0, 1),
    Op.PUTSTATIC: OpInfo("putstatic", 1, 0),
    Op.INVOKEVIRTUAL: OpInfo("invokevirtual", VARIABLE, VARIABLE),
    Op.INVOKESPECIAL: OpInfo("invokespecial", VARIABLE, VARIABLE),
    Op.INVOKESTATIC: OpInfo("invokestatic", VARIABLE, VARIABLE),
    Op.INVOKEINTERFACE: OpInfo("invokeinterface", VARIABLE, VARIABLE),
    Op.INSTANCEOF: OpInfo("instanceof", 1, 1),
    Op.CHECKCAST: OpInfo("checkcast", 1, 1),
    Op.NEWARRAY: OpInfo("newarray", 1, 1),
    Op.ALOAD: OpInfo("aload", 2, 1, has_arg=False),
    Op.ASTORE: OpInfo("astore", 3, 0, has_arg=False),
    Op.ARRAYLEN: OpInfo("arraylen", 1, 1, has_arg=False),
    Op.INTRINSIC: OpInfo("intrinsic", VARIABLE, VARIABLE),
    Op.NOP: OpInfo("nop", 0, 0, has_arg=False),
    Op.INVOKEVIRTUAL_QUICK: OpInfo("invokevirtual_quick", VARIABLE, VARIABLE),
    Op.INVOKEINTERFACE_QUICK: OpInfo(
        "invokeinterface_quick", VARIABLE, VARIABLE
    ),
    Op.LOAD_GETFIELD: OpInfo("load_getfield", 0, 1),
    Op.LOAD_LOAD: OpInfo("load_load", 0, 2),
    Op.LOAD_CONST: OpInfo("load_const", 0, 2),
    Op.CMP_LT_JF: OpInfo("cmp_lt_jf", 2, 0, is_branch=True),
    Op.CMP_EQ_JF: OpInfo("cmp_eq_jf", 2, 0, is_branch=True),
    Op.INC: OpInfo("inc", 0, 0),
    Op.ITER_LT_JF: OpInfo("iter_lt_jf", 0, 0, is_branch=True),
    Op.ADD_STORE: OpInfo("add_store", 2, 0),
    Op.ADD_PUTFIELD: OpInfo("add_putfield", 3, 0),
    Op.ADD_RETURN: OpInfo("add_return", 2, 0, is_terminator=True,
                          has_arg=False),
    Op.LOAD_RETURN: OpInfo("load_return", 0, 0, is_terminator=True),
    Op.LOAD_ADD: OpInfo("load_add", 1, 1),
    Op.LOAD_SUB: OpInfo("load_sub", 1, 1),
    Op.LOAD_MUL: OpInfo("load_mul", 1, 1),
    Op.GETFIELD_RETURN: OpInfo("getfield_return", 0, 0,
                               is_terminator=True),
    Op.FIELD_INC: OpInfo("field_inc", 0, 0),
}

#: Opcodes that invoke another method (share call-shaped arguments).
CALL_OPS = frozenset(
    {Op.INVOKEVIRTUAL, Op.INVOKESPECIAL, Op.INVOKESTATIC, Op.INVOKEINTERFACE}
)

#: Opcodes that end a basic block.
BRANCH_OPS = frozenset(
    {Op.JUMP, Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE, Op.RETURN, Op.RETURN_VOID}
)

#: Commutative binary arithmetic opcodes (used by algebraic simplification).
COMMUTATIVE_OPS = frozenset({Op.ADD, Op.MUL, Op.BAND, Op.BOR, Op.BXOR,
                             Op.CMP_EQ, Op.CMP_NE})

#: Code-array slots covered by each opcode.  Superinstructions span the
#: slots of the instructions they fused (fusion is slot-preserving: the
#: covered slots keep their original, standalone-correct instructions so
#: branches may land inside a fused region); every other op covers one.
#: The widths mirror the ``pc`` increments in ``interpret_quick``.
OP_WIDTH: dict[Op, int] = {
    Op.LOAD_GETFIELD: 2,
    Op.LOAD_LOAD: 2,
    Op.LOAD_CONST: 2,
    Op.CMP_LT_JF: 2,
    Op.CMP_EQ_JF: 2,
    Op.ADD_STORE: 2,
    Op.ADD_PUTFIELD: 2,
    Op.ADD_RETURN: 2,
    Op.LOAD_RETURN: 2,
    Op.LOAD_ADD: 2,
    Op.LOAD_SUB: 2,
    Op.LOAD_MUL: 2,
    Op.GETFIELD_RETURN: 3,
    Op.INC: 4,
    Op.ITER_LT_JF: 4,
    Op.FIELD_INC: 6,
}


def op_width(op: Op) -> int:
    """Code-array slots covered by ``op`` (see :data:`OP_WIDTH`)."""
    return OP_WIDTH.get(op, 1)


def branch_target(instr) -> int | None:
    """The branch-target index of a (possibly quickened) branch
    instruction, or ``None`` for non-branches and RETURN-likes.

    Plain branches and the fused compare-jumps carry the target as the
    whole arg; ``ITER_LT_JF`` packs it as ``arg[2]``.
    """
    op = instr.op
    if op in (Op.JUMP, Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE,
              Op.CMP_LT_JF, Op.CMP_EQ_JF):
        return instr.arg if isinstance(instr.arg, int) else None
    if op is Op.ITER_LT_JF:
        return instr.arg[2]
    return None


#: Runtime-only opcodes produced by the quickener; the verifier, the
#: bytecode-to-IR lowering, and the persistent cache must never see one.
QUICK_OPS = frozenset({
    Op.INVOKEVIRTUAL_QUICK,
    Op.INVOKEINTERFACE_QUICK,
    Op.LOAD_GETFIELD,
    Op.LOAD_LOAD,
    Op.LOAD_CONST,
    Op.CMP_LT_JF,
    Op.CMP_EQ_JF,
    Op.INC,
    Op.ITER_LT_JF,
    Op.ADD_STORE,
    Op.ADD_PUTFIELD,
    Op.ADD_RETURN,
    Op.LOAD_RETURN,
    Op.LOAD_ADD,
    Op.LOAD_SUB,
    Op.LOAD_MUL,
    Op.GETFIELD_RETURN,
    Op.FIELD_INC,
})


def mnemonic(op: Op) -> str:
    """Return the assembler mnemonic for ``op``."""
    return OP_INFO[op].mnemonic
