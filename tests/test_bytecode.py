"""Bytecode layer tests: builder, verifier, disassembler, types."""

import pytest

from repro.bytecode import (
    CodeBuilder,
    Instr,
    JxType,
    Op,
    VerifyError,
    disassemble_method,
    make_method,
    verify_method,
)
from repro.bytecode.classfile import INT, VOID, ClassInfo, FieldInfo, ProgramUnit
from repro.bytecode.opcodes import OP_INFO, op_width, successors


def build(body, num_params=0, returns=True):
    cb = CodeBuilder(num_params=num_params)
    body(cb)
    return make_method(
        "m", "C", [INT] * num_params, INT if returns else VOID, cb,
        is_static=True,
    )


def test_builder_labels_forward_and_backward():
    cb = CodeBuilder(num_params=1)
    top = cb.new_label("top")
    done = cb.new_label("done")
    cb.place(top)
    cb.load(0)
    cb.const(0)
    cb.emit(Op.CMP_LE)
    cb.jump_if_true(done)
    cb.load(0)
    cb.const(1)
    cb.emit(Op.SUB)
    cb.store(0)
    cb.jump(top)
    cb.place(done)
    cb.load(0)
    cb.emit(Op.RETURN)
    method = make_method("count", "C", [INT], INT, cb, is_static=True)
    depths = verify_method(method)
    assert depths[0] == 0


def test_unresolved_label_raises():
    cb = CodeBuilder()
    dangling = cb.new_label()
    cb.jump(dangling)
    with pytest.raises(ValueError):
        cb.finish()


def test_double_placed_label_raises():
    cb = CodeBuilder()
    label = cb.new_label()
    cb.place(label)
    with pytest.raises(ValueError):
        cb.place(label)


def test_verify_rejects_fall_off_end():
    method = build(lambda cb: cb.const(1), returns=True)
    with pytest.raises(VerifyError) as err:
        verify_method(method)
    assert "fall off" in str(err.value)


def test_verify_rejects_stack_underflow():
    def body(cb):
        cb.emit(Op.ADD)  # nothing on the stack
        cb.emit(Op.RETURN)

    with pytest.raises(VerifyError) as err:
        verify_method(build(body))
    assert "underflow" in str(err.value)


def test_verify_rejects_inconsistent_join_depth():
    # Path A pushes 2 values, path B pushes 1, both join.
    cb = CodeBuilder(num_params=1)
    join = cb.new_label()
    other = cb.new_label()
    cb.load(0)
    cb.jump_if_true(other)
    cb.const(1)
    cb.const(2)
    cb.jump(join)
    cb.place(other)
    cb.const(1)
    cb.place(join)
    cb.emit(Op.RETURN)
    method = make_method("m", "C", [INT], INT, cb, is_static=True)
    with pytest.raises(VerifyError) as err:
        verify_method(method)
    assert "join" in str(err.value)


def test_verify_rejects_bad_branch_target():
    method = build(lambda cb: (cb.const(1), cb.emit(Op.RETURN)))
    method.code.insert(0, Instr(Op.JUMP, 99))
    with pytest.raises(VerifyError) as err:
        verify_method(method)
    assert "branch target" in str(err.value)


def test_verify_rejects_bad_local_index():
    def body(cb):
        cb.emit(Op.LOAD, 7)
        cb.emit(Op.RETURN)

    with pytest.raises(VerifyError) as err:
        verify_method(build(body, num_params=1))
    assert "local index" in str(err.value)


def test_disassembly_marks_targets_and_args():
    def body(cb):
        top = cb.new_label()
        cb.place(top)
        cb.const(1)
        cb.emit(Op.POP)
        cb.jump(top)

    text = disassemble_method(build(body, returns=False))
    assert "-> " in text       # branch target marker
    assert "jump" in text
    assert "const 1" in text


def test_jxtype_helpers():
    arr = JxType("int", 2)
    assert arr.is_array and arr.is_reference
    assert arr.element_type() == JxType("int", 1)
    assert arr.element_type().element_type() == JxType("int")
    assert JxType("int").default_value() == 0
    assert JxType("boolean").default_value() is False
    assert JxType("Foo").default_value() is None
    assert str(arr) == "int[][]"
    with pytest.raises(ValueError):
        JxType("int").element_type()


def test_program_unit_lookup_and_subtyping():
    unit = ProgramUnit()
    a = ClassInfo(name="A")
    b = ClassInfo(name="B", super_name="A")
    a.add_field(FieldInfo(name="f", type=INT, declaring_class="A"))
    unit.add_class(a)
    unit.add_class(b)
    assert unit.lookup_field("B", "f").declaring_class == "A"
    assert unit.is_subtype("B", "A")
    assert not unit.is_subtype("A", "B")
    assert unit.subclasses_of("A") == ["B"]
    assert list(unit.supertypes("B")) == ["B", "A"]


def test_duplicate_class_rejected():
    unit = ProgramUnit()
    unit.add_class(ClassInfo(name="A"))
    with pytest.raises(ValueError):
        unit.add_class(ClassInfo(name="A"))


# -- the successor rule ----------------------------------------------------------

#: Written out by hand, so the rule is checked against the ISA rather
#: than against the flags it is derived from.
RETURNS = {Op.RETURN, Op.RETURN_VOID, Op.ADD_RETURN, Op.LOAD_RETURN,
           Op.GETFIELD_RETURN}
COND_BRANCHES = {Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE, Op.CMP_LT_JF,
                 Op.CMP_EQ_JF, Op.ITER_LT_JF}
TARGET = 3


@pytest.mark.parametrize("op", list(OP_INFO), ids=lambda op: op.name)
def test_successor_rule(op):
    """Every opcode, pristine and fused: a return has no successor, JUMP
    only its target, a conditional branch its fall-through then its
    target, and anything else its fall-through ``pc + width``."""
    pc = 10
    arg = (0, 5, TARGET) if op is Op.ITER_LT_JF else TARGET
    got = successors(Instr(op, arg), pc)
    if op in RETURNS:
        assert got == ()
    elif op is Op.JUMP:
        assert got == (TARGET,)
    elif op in COND_BRANCHES:
        assert got == (pc + op_width(op), TARGET)
    else:
        assert got == (pc + op_width(op),)
