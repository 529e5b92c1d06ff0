"""Human-readable disassembly of Jx bytecode.

Two listings: :func:`disassemble_method` renders pristine frontend
bytecode; :func:`disassemble_quick` renders a RuntimeMethod's quickened
body (``jx disasm --quick``), where superinstructions span several
slots — covered slots keep their original standalone instructions (legal
branch-landing pads) and are annotated instead of hidden.
"""

from __future__ import annotations

from repro.bytecode.classfile import ClassInfo, MethodInfo, ProgramUnit
from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import OP_INFO, Op, branch_target, op_width


def disassemble_method(method: MethodInfo) -> str:
    """Return a numbered listing of ``method``'s code."""
    lines = [f"{method}  (max_locals={method.max_locals})"]
    targets = {
        t for instr in method.code
        if (t := branch_target(instr)) is not None
    }
    for i, instr in enumerate(method.code):
        marker = "->" if i in targets else "  "
        info = OP_INFO[instr.op]
        arg = "" if instr.arg is None else f" {instr.arg!r}"
        hook = "  ; state-field write" if instr.state_hook is not None else ""
        lines.append(f"{marker}{i:4d}: {info.mnemonic}{arg}{hook}")
    return "\n".join(lines)


def _quick_arg(instr: Instr) -> str:
    """Pretty-print a quick op's arg: superinstructions pack shared
    ``Instr`` objects (ADD_PUTFIELD's arg IS the fused PUTFIELD;
    FIELD_INC packs ``(local, putfield, const)``) which would otherwise
    render as opaque object reprs."""
    op, a = instr.op, instr.arg
    if op is Op.ADD_PUTFIELD:
        return f" putfield {a.arg!r}"
    if op is Op.FIELD_INC:
        return f" (local {a[0]}, putfield {a[1].arg!r}, +{a[2]!r})"
    if a is None:
        return ""
    return f" {a!r}"


def _slot_note(instr: Instr) -> str:
    """Annotate an op whose resolved operand is a slot index."""
    r = instr.resolved
    return f"  ; slot {r}" if type(r) is int else ""


def _quick_hook(instr: Instr):
    """The live state hook a quick op fires, if any (fused forms read it
    off the shared PUTFIELD Instr they pack)."""
    if instr.op is Op.ADD_PUTFIELD:
        return instr.arg.state_hook
    if instr.op is Op.FIELD_INC:
        return instr.arg[1].state_hook
    return instr.state_hook


def disassemble_quick(rm) -> str:
    """Return a numbered listing of ``rm.quick_code``.

    Slots covered by a preceding superinstruction are annotated
    ``; covered by <mnemonic>@<start>`` — they are skipped by
    straight-line execution but remain valid branch targets.
    """
    code = rm.quick_code
    if not code:
        return f"{rm.info}  (not quickened)"
    lines = [f"{rm.info}  (max_locals={rm.info.max_locals}, quickened)"]
    targets = {
        t for instr in code if (t := branch_target(instr)) is not None
    }
    covered_by: dict[int, int] = {}
    i, n = 0, len(code)
    while i < n:
        width = op_width(code[i].op)
        for k in range(i + 1, min(i + width, n)):
            covered_by[k] = i
        i += width
    for j, instr in enumerate(code):
        marker = "->" if j in targets else "  "
        info = OP_INFO[instr.op]
        arg = _quick_arg(instr)
        slot = _slot_note(instr)
        hook = "  ; state-field write" if _quick_hook(instr) is not None else ""
        note = ""
        start = covered_by.get(j)
        if start is not None:
            note = f"  ; covered by {OP_INFO[code[start].op].mnemonic}@{start}"
        lines.append(f"{marker}{j:4d}: {info.mnemonic}{arg}{slot}{hook}{note}")
    return "\n".join(lines)


def disassemble_class(cls: ClassInfo) -> str:
    """Return a listing of every method in ``cls``."""
    header = str(cls)
    if cls.super_name:
        header += f" extends {cls.super_name}"
    if cls.interface_names:
        header += " implements " + ", ".join(cls.interface_names)
    parts = [header]
    for f in cls.fields.values():
        parts.append(f"  {f}")
    for m in cls.methods.values():
        body = disassemble_method(m) if not m.is_abstract else f"{m}  (abstract)"
        parts.append("  " + body.replace("\n", "\n  "))
    return "\n".join(parts)


def disassemble_program(program: ProgramUnit) -> str:
    """Return a listing of every class in ``program``."""
    return "\n\n".join(
        disassemble_class(cls) for cls in program.classes.values()
    )
