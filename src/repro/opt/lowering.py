"""Bytecode -> IR lowering.

Abstract-interprets the operand stack with symbolic operands: constants
stay immediate, loads of locals push the local's register directly
(spilled to a temp only if the local is overwritten while aliased on the
stack), and every block entry materializes canonical per-block stack
registers (``s<block>_<depth>``) that predecessors copy into — the
standard stack-to-register conversion for a verified stack machine.

Runs *after linking*: instruction ``resolved`` slots provide field slot
numbers, vtable offsets, JTOC cells, and intrinsic records.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.bytecode.classfile import MethodInfo
from repro.bytecode.opcodes import CALL_OPS, Op
from repro.bytecode.verify import verify_method
from repro.opt.bytecode_cfg import BytecodeCFG
from repro.opt.ir import Const, Extra, IRFunction, IRInstr, Operand, Reg

_BINOP = {
    Op.ADD: "add",
    Op.SUB: "sub",
    Op.MUL: "mul",
    Op.IDIV: "idiv",
    Op.FDIV: "fdiv",
    Op.IREM: "irem",
    Op.SHL: "shl",
    Op.SHR: "shr",
    Op.BAND: "band",
    Op.BOR: "bor",
    Op.BXOR: "bxor",
    Op.CMP_LT: "lt",
    Op.CMP_LE: "le",
    Op.CMP_GT: "gt",
    Op.CMP_GE: "ge",
    Op.CMP_EQ: "eq",
    Op.CMP_NE: "ne",
    Op.CONCAT: "concat",
}
_UNOP = {Op.NEG: "neg", Op.NOT: "not", Op.I2D: "i2d", Op.D2I: "d2i"}


def _call_returns_map(method: MethodInfo) -> dict[int, bool]:
    """Per-call-instruction result arity, read off linked resolutions."""
    out: dict[int, bool] = {}
    for i, instr in enumerate(method.code):
        if instr.op in CALL_OPS:
            resolved = instr.resolved
            out[i] = resolved[-1] if isinstance(resolved, tuple) else True
        elif instr.op is Op.INTRINSIC:
            out[i] = instr.resolved.returns
    return out


class Lowerer:
    """Lowers one linked method to an :class:`IRFunction`."""

    def __init__(self, method: MethodInfo) -> None:
        self.method = method
        #: Numbers this function's temps ``t0, t1, ...``, so a method's
        #: IR does not depend on what else the process lowered.
        self._temps = itertools.count()
        self.cfg = BytecodeCFG(method)
        self.depths = verify_method(method, _call_returns_map(method))
        self.fn = IRFunction(
            name=method.qualified_name,
            num_args=method.num_args,
            max_locals=method.max_locals,
            returns_value=method.return_type.name != "void",
        )
        kinds = [] if method.is_static else ["ref"]
        tag_of = {"int": "int", "double": "double", "boolean": "bool",
                  "string": "str"}
        for ptype in method.param_types:
            if ptype.is_array or not ptype.is_primitive:
                kinds.append("ref")
            else:
                kinds.append(tag_of.get(ptype.name, "?"))
        self.fn.param_kinds = kinds

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _entry_reg(block_id: int, depth: int) -> Reg:
        return Reg(f"s{block_id}_{depth}")

    @staticmethod
    def _local(index: int) -> Reg:
        return Reg(f"l{index}")

    def _temp(self) -> Reg:
        return Reg(f"t{next(self._temps)}")

    def lower(self) -> IRFunction:
        # Create IR blocks 1:1 with bytecode blocks (same ids).
        for _ in self.cfg.blocks:
            self.fn.new_block()
        for bid in self.cfg.order:
            self._lower_block(bid)
        # Drop blocks never lowered (unreachable bytecode).
        reachable = set(self.cfg.order)
        for bid in list(self.fn.blocks):
            if bid not in reachable:
                self.fn.remove_block(bid)
        return self.fn

    def _emit_entry_copies(
        self, out: list[IRInstr], stack: list[Operand], succ: int, line: int
    ) -> None:
        prefix = f"s{succ}_"
        values = list(stack)
        # Parallel-copy hazard: a value being copied is itself one of the
        # successor's entry registers at a *different* depth (possible on
        # self-loops after SWAP).  Route every copy through temps then.
        hazard = any(
            isinstance(v, Reg)
            and v.name.startswith(prefix)
            and v != self._entry_reg(succ, d)
            for d, v in enumerate(values)
        )
        if hazard:
            spilled: list[Operand] = []
            for v in values:
                tmp = self._temp()
                out.append(IRInstr("mov", tmp, [v], line=line))
                spilled.append(tmp)
            values = spilled
        for depth, value in enumerate(values):
            target = self._entry_reg(succ, depth)
            if value != target:
                out.append(IRInstr("mov", target, [value], line=line))

    def _lower_block(self, bid: int) -> None:
        method = self.method
        code = method.code
        bc_block = self.cfg.blocks[bid]
        ir_block = self.fn.blocks[bid]
        out = ir_block.instrs
        depth = self.depths[bc_block.start]
        stack: list[Operand] = [
            self._entry_reg(bid, k) for k in range(depth)
        ]

        def push_result(op: str, args: list[Operand], extra: Extra | None,
                        line: int) -> None:
            dest = self._temp()
            out.append(IRInstr(op, dest, args, extra, line))
            stack.append(dest)

        index = bc_block.start
        while index < bc_block.end:
            instr = code[index]
            op = instr.op
            line = instr.line
            if op is Op.CONST:
                stack.append(Const(instr.arg))
            elif op is Op.LOAD:
                stack.append(self._local(instr.arg))
            elif op is Op.STORE:
                value = stack.pop()
                local = self._local(instr.arg)
                # Spill stack aliases of this local before overwriting.
                for k, slot_val in enumerate(stack):
                    if slot_val == local:
                        tmp = self._temp()
                        out.append(IRInstr("mov", tmp, [local], line=line))
                        for j in range(k, len(stack)):
                            if stack[j] == local:
                                stack[j] = tmp
                        break
                out.append(IRInstr("mov", local, [value], line=line))
            elif op is Op.POP:
                stack.pop()
            elif op is Op.DUP:
                stack.append(stack[-1])
            elif op is Op.SWAP:
                stack[-1], stack[-2] = stack[-2], stack[-1]
            elif op in _BINOP:
                b = stack.pop()
                a = stack.pop()
                dest = self._temp()
                out.append(IRInstr(_BINOP[op], dest, [a, b], line=line))
                stack.append(dest)
            elif op in _UNOP:
                a = stack.pop()
                dest = self._temp()
                out.append(IRInstr(_UNOP[op], dest, [a], line=line))
                stack.append(dest)
            elif op is Op.GETFIELD:
                obj = stack.pop()
                cls_name, field_name = instr.arg
                extra = Extra(
                    slot=instr.resolved, key=f"{cls_name}.{field_name}"
                )
                push_result("getfield", [obj], extra, line)
            elif op is Op.PUTFIELD:
                value = stack.pop()
                obj = stack.pop()
                cls_name, field_name = instr.arg
                # Carries the hook the mutation manager installed;
                # pycodegen emits a call to it after the store.
                extra = Extra(
                    slot=instr.resolved,
                    key=f"{cls_name}.{field_name}",
                    hook=instr.state_hook,
                )
                # Record the deopt resume point (the pc *after* the
                # store) when the interpreter frame is reconstructible
                # there, i.e. the operand stack is provably empty.  The
                # OSR guard pass (repro.vm.osr) only arms putfields that
                # carry a pc.
                if (index + 1 < len(self.depths)
                        and self.depths[index + 1] == 0):
                    extra.pc = index + 1
                out.append(
                    IRInstr("putfield", None, [obj, value], extra, line)
                )
            elif op is Op.GETSTATIC:
                cls_name, field_name = instr.arg
                extra = Extra(
                    slot=instr.resolved, key=f"{cls_name}.{field_name}"
                )
                push_result("getstatic", [], extra, line)
            elif op is Op.PUTSTATIC:
                value = stack.pop()
                cls_name, field_name = instr.arg
                extra = Extra(
                    slot=instr.resolved,
                    key=f"{cls_name}.{field_name}",
                    hook=instr.state_hook,
                )
                if (index + 1 < len(self.depths)
                        and self.depths[index + 1] == 0):
                    extra.pc = index + 1
                out.append(IRInstr("putstatic", None, [value], extra, line))
            elif op is Op.NEW:
                push_result("new", [], Extra(rc=instr.resolved), line)
            elif op is Op.NEWARRAY:
                length = stack.pop()
                extra = Extra(elem=instr.arg, fill=instr.resolved)
                push_result("newarray", [length], extra, line)
            elif op is Op.ALOAD:
                idx = stack.pop()
                arr = stack.pop()
                push_result("aload", [arr, idx], Extra(bounds=True), line)
            elif op is Op.ASTORE:
                value = stack.pop()
                idx = stack.pop()
                arr = stack.pop()
                out.append(
                    IRInstr(
                        "astore", None, [arr, idx, value],
                        Extra(bounds=True), line,
                    )
                )
            elif op is Op.ARRAYLEN:
                arr = stack.pop()
                push_result("arraylen", [arr], None, line)
            elif op is Op.INSTANCEOF:
                obj = stack.pop()
                push_result("instanceof", [obj], Extra(rc=instr.resolved),
                            line)
            elif op is Op.CHECKCAST:
                obj = stack[-1]
                out.append(
                    IRInstr("checkcast", None, [obj],
                            Extra(rc=instr.resolved), line)
                )
            elif op is Op.INVOKEVIRTUAL:
                cls_name, key, argc = instr.arg
                offset, returns = instr.resolved
                args = stack[-argc:]
                del stack[-argc:]
                extra = Extra(
                    offset=offset, returns=returns, key=key, name=cls_name
                )
                if returns:
                    push_result("callv", args, extra, line)
                else:
                    out.append(IRInstr("callv", None, args, extra, line))
            elif op is Op.INVOKESPECIAL:
                cls_name, key, argc = instr.arg
                target_rm, returns = instr.resolved
                args = stack[-argc:]
                del stack[-argc:]
                extra = Extra(
                    rm=target_rm, returns=returns, key=key, name=cls_name
                )
                if returns:
                    push_result("callsp", args, extra, line)
                else:
                    out.append(IRInstr("callsp", None, args, extra, line))
            elif op is Op.INVOKESTATIC:
                cls_name, key, argc = instr.arg
                cell, returns = instr.resolved
                args = stack[-argc:] if argc else []
                if argc:
                    del stack[-argc:]
                extra = Extra(
                    cell=cell, returns=returns, key=key, name=cls_name
                )
                if returns:
                    push_result("calls", args, extra, line)
                else:
                    out.append(IRInstr("calls", None, args, extra, line))
            elif op is Op.INVOKEINTERFACE:
                cls_name, key, argc = instr.arg
                slot, _, returns = instr.resolved
                args = stack[-argc:]
                del stack[-argc:]
                extra = Extra(
                    slot=slot, returns=returns, key=key, name=cls_name
                )
                if returns:
                    push_result("calli", args, extra, line)
                else:
                    out.append(IRInstr("calli", None, args, extra, line))
            elif op is Op.INTRINSIC:
                intr = instr.resolved
                n = intr.nargs
                args = stack[-n:] if n else []
                if n:
                    del stack[-n:]
                extra = Extra(intrinsic=intr, returns=intr.returns,
                              name=intr.name)
                if intr.returns:
                    push_result("intr", args, extra, line)
                else:
                    out.append(IRInstr("intr", None, args, extra, line))
            elif op is Op.JUMP:
                target = self.cfg.block_of_instr[instr.arg]
                self._emit_entry_copies(out, stack, target, line)
                out.append(IRInstr("jump", None, [], Extra(target=target),
                                   line))
                return
            elif op in (Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE):
                cond = stack.pop()
                branch_bb = self.cfg.block_of_instr[instr.arg]
                fall_bb = self.cfg.block_of_instr[index + 1]
                self._emit_entry_copies(out, stack, branch_bb, line)
                if fall_bb != branch_bb:
                    self._emit_entry_copies(out, stack, fall_bb, line)
                if op is Op.JUMP_IF_TRUE:
                    extra = Extra(if_true=branch_bb, if_false=fall_bb)
                else:
                    extra = Extra(if_true=fall_bb, if_false=branch_bb)
                out.append(IRInstr("br", None, [cond], extra, line))
                return
            elif op is Op.RETURN:
                value = stack.pop()
                out.append(IRInstr("ret", None, [value], None, line))
                return
            elif op is Op.RETURN_VOID:
                out.append(IRInstr("ret", None, [], None, line))
                return
            elif op is Op.NOP:
                pass
            else:  # pragma: no cover
                raise AssertionError(f"cannot lower opcode {op!r}")
            index += 1

        # Fell through to the next block: explicit jump + entry copies.
        succ = bc_block.succs[0]
        line = code[bc_block.end - 1].line if bc_block.end else 0
        self._emit_entry_copies(out, stack, succ, line)
        out.append(IRInstr("jump", None, [], Extra(target=succ), line))


def lower_method(method: MethodInfo) -> IRFunction:
    """Lower one linked method's bytecode to IR."""
    return Lowerer(method).lower()


def lower_method_osr(method: MethodInfo, pc: int) -> IRFunction:
    """Lower ``method`` as an OSR continuation entered at bytecode ``pc``.

    The whole body is lowered normally, then the function's entry is
    repointed at the block that starts at ``pc`` and every local becomes
    a parameter (the captured interpreter frame arrives as the args
    list).  Pre-loop blocks become unreachable and are pruned by the
    normal pipeline passes.

    ``pc`` must be a block leader with an empty operand stack — the
    caller (``repro.vm.osr``) checks eligibility; this raises
    ``ValueError`` as a belt-and-braces guard.
    """
    lw = Lowerer(method)
    fn = lw.lower()
    if lw.depths[pc] != 0:
        raise ValueError(f"OSR pc {pc} has non-empty operand stack")
    entry = lw.cfg.block_of_instr[pc]
    if lw.cfg.blocks[entry].start != pc:
        raise ValueError(f"OSR pc {pc} is not a block leader")
    fn.set_entry(entry)
    # All locals arrive as arguments; unknown kinds for the non-param
    # slots (type inference treats "?" as top).
    fn.param_kinds = fn.param_kinds + ["?"] * (
        fn.max_locals - len(fn.param_kinds)
    )
    fn.num_args = fn.max_locals
    return fn
