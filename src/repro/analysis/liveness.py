"""Live-local analysis — the OSR frame-mapping client.

A backward may-liveness over the instruction graph that the successor
rule (:func:`repro.bytecode.opcodes.successors`) gives: a local slot is
*live-in* at an instruction when some path from it reads the slot before
overwriting it.
On-stack replacement (:mod:`repro.vm.osr`) uses the per-instruction
live-in sets as its compensation sets — a captured frame only needs the
live slots transferred; everything else materializes as ``None``
(exactly the interpreter's initial locals padding), which is what makes
capture → materialize → resume reproduce the uninterrupted frame.

Only *normal* control flow contributes: an instruction that raises
unwinds the whole method (Jx has no catch handlers), so no local is read
afterwards.

Works on pristine ``info.code`` and quickened ``rm.quick_code`` bodies;
quickening is slot-preserving, so the pristine sets are valid at any pc
shared by both encodings (which is all of them).
"""

from __future__ import annotations

from repro.analysis.dataflow import solve_backward
from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import Op, successors


def local_effects(instr: Instr) -> tuple[frozenset[int], frozenset[int]]:
    """``(uses, defs)`` — local slots read / written by one instruction.

    Covers the pristine ops (``LOAD``/``STORE`` are the only locals
    accessors) and every quickened superinstruction that folds a locals
    access into a fused form.
    """
    op = instr.op
    arg = instr.arg
    none: frozenset[int] = frozenset()
    if op is Op.LOAD or op is Op.LOAD_RETURN:
        return frozenset({arg}), none
    if op is Op.STORE or op is Op.ADD_STORE:
        return none, frozenset({arg})
    if op in (Op.LOAD_ADD, Op.LOAD_SUB, Op.LOAD_MUL):
        return frozenset({arg}), none
    if op is Op.LOAD_LOAD:
        return frozenset({arg[0], arg[1]}), none
    if op in (Op.LOAD_CONST, Op.LOAD_GETFIELD, Op.ITER_LT_JF,
              Op.FIELD_INC, Op.GETFIELD_RETURN):
        return frozenset({arg[0]}), none
    if op is Op.INC:
        slot = frozenset({arg[0]})
        return slot, slot
    return none, none


def live_locals(code: list[Instr]) -> list[frozenset[int]]:
    """Per-instruction live-in local sets for one code array.

    ``result[pc]`` is the set of local slots whose values an execution
    resumed at ``pc`` may still read.  Computed as the least fixed point
    of the classic backward equations (``in = uses ∪ (out − defs)``)
    over normal flow; a return's out set is empty.
    """
    effects = [local_effects(instr) for instr in code]

    def transfer(i: int, out: frozenset[int]) -> frozenset[int]:
        uses, defs = effects[i]
        return uses | (out - defs)

    return solve_backward(
        succs=[successors(instr, pc) for pc, instr in enumerate(code)],
        transfer=transfer,
        join=lambda a, b: a | b,
        top=frozenset(),
        boundary={},
    )
