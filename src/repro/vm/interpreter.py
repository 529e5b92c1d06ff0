"""The opt0 execution engine: the VM's one bytecode dispatch loop.

This is JxVM's analog of running a method's baseline-compiled code in
Jikes RVM: no optimization, straight-line semantics, plus the sampling
that drives the adaptive system (method-entry ticks are credited by the
compiled-method wrapper; *backedge* ticks are credited here so that
loop-dominated methods get hot without being re-invoked — the yieldpoint
analog).

:func:`interpret_quick` runs a method's quickened body
(``rm.quick_code``, :mod:`repro.bytecode.quicken`) once one is
published, and its pristine ``info.code`` otherwise: with quickening
off, before the first call quickens it, or when translation validation
refused the body.  Quickening preserves every slot and pc, so both
bodies share one frame layout, and an OSR deopt resumes here on
whichever body is published.

State-field write hooks: PUTFIELD/PUTSTATIC instructions that the
mutation manager marked (``instr.state_hook``) invoke the distributed
dynamic class mutation algorithm's field-assignment actions (paper
Fig. 4) immediately after the store.
"""

from __future__ import annotations

from typing import Any

from repro.bytecode.opcodes import Op
from repro.vm.values import (
    ArrayBoundsError,
    ClassCastError,
    NullPointerError,
    VMArray,
    VMRuntimeError,
    jx_rem,
    jx_str,
    jx_truncate_div,
)

_LOAD = Op.LOAD
_STORE = Op.STORE
_CONST = Op.CONST
_GETFIELD = Op.GETFIELD
_PUTFIELD = Op.PUTFIELD
_GETSTATIC = Op.GETSTATIC
_PUTSTATIC = Op.PUTSTATIC
_ADD = Op.ADD
_SUB = Op.SUB
_MUL = Op.MUL
_IDIV = Op.IDIV
_FDIV = Op.FDIV
_IREM = Op.IREM
_NEG = Op.NEG
_I2D = Op.I2D
_D2I = Op.D2I
_SHL = Op.SHL
_SHR = Op.SHR
_BAND = Op.BAND
_BOR = Op.BOR
_BXOR = Op.BXOR
_CMP_LT = Op.CMP_LT
_CMP_LE = Op.CMP_LE
_CMP_GT = Op.CMP_GT
_CMP_GE = Op.CMP_GE
_CMP_EQ = Op.CMP_EQ
_CMP_NE = Op.CMP_NE
_NOT = Op.NOT
_CONCAT = Op.CONCAT
_JUMP = Op.JUMP
_JUMP_IF_TRUE = Op.JUMP_IF_TRUE
_JUMP_IF_FALSE = Op.JUMP_IF_FALSE
_RETURN = Op.RETURN
_RETURN_VOID = Op.RETURN_VOID
_NEW = Op.NEW
_INVOKEVIRTUAL = Op.INVOKEVIRTUAL
_INVOKESPECIAL = Op.INVOKESPECIAL
_INVOKESTATIC = Op.INVOKESTATIC
_INVOKEINTERFACE = Op.INVOKEINTERFACE
_INSTANCEOF = Op.INSTANCEOF
_CHECKCAST = Op.CHECKCAST
_NEWARRAY = Op.NEWARRAY
_ALOAD = Op.ALOAD
_ASTORE = Op.ASTORE
_ARRAYLEN = Op.ARRAYLEN
_INTRINSIC = Op.INTRINSIC
_POP = Op.POP
_DUP = Op.DUP
_SWAP = Op.SWAP
_NOP = Op.NOP
_INVOKEVIRTUAL_QUICK = Op.INVOKEVIRTUAL_QUICK
_INVOKEINTERFACE_QUICK = Op.INVOKEINTERFACE_QUICK
_LOAD_GETFIELD = Op.LOAD_GETFIELD
_LOAD_LOAD = Op.LOAD_LOAD
_LOAD_CONST = Op.LOAD_CONST
_CMP_LT_JF = Op.CMP_LT_JF
_CMP_EQ_JF = Op.CMP_EQ_JF
_INC = Op.INC
_ITER_LT_JF = Op.ITER_LT_JF
_ADD_STORE = Op.ADD_STORE
_ADD_PUTFIELD = Op.ADD_PUTFIELD
_ADD_RETURN = Op.ADD_RETURN
_LOAD_RETURN = Op.LOAD_RETURN
_LOAD_ADD = Op.LOAD_ADD
_LOAD_SUB = Op.LOAD_SUB
_LOAD_MUL = Op.LOAD_MUL
_GETFIELD_RETURN = Op.GETFIELD_RETURN
_FIELD_INC = Op.FIELD_INC

#: Ticks credited per method entry — the shared definition from the
#: adaptive system (`AdaptiveConfig.ENTRY_TICKS`); `repro.vm.compiled`
#: re-exports the same constant.
from repro.vm.adaptive import ENTRY_TICKS as _ENTRY_TICKS


class JxStackTrace(VMRuntimeError):
    """A VM runtime error annotated with the Jx call stack."""

    def __init__(self, cause: VMRuntimeError, frames: list[str]) -> None:
        self.cause = cause
        self.frames = frames
        trace = "\n  at ".join(frames)
        super().__init__(f"{cause}\n  at {trace}")


def interpret_quick(vm: Any, rm: Any, args: list[Any], pc: int = 0) -> Any:
    """Execute ``rm``'s bytecode — the VM's one dispatch loop.

    Runs ``rm.quick_code`` when a quickened body is published and the
    pristine ``rm.info.code`` otherwise.  A call (``pc`` 0) passes the
    arguments, padded here with ``rm.quick_pad``; a non-zero ``pc``
    resumes mid-method — the OSR deopt path
    (:func:`repro.vm.osr.deopt_to_interpreter`) passes the full rebuilt
    locals list and the resume pc (deopt pcs have an empty operand
    stack, so the locals are the whole frame).

    Over a quickened body:

    * call sites run their quickened forms; virtual/interface calls go
      through TIB-identity-keyed inline caches whose hit path is two
      identity checks and a cached entry callable — a TIB swap changes
      the key, so mutation redirects sites with no guards;
    * superinstructions cover the hottest adjacent pairs plus the loop
      idioms (``i += c`` and the counted-loop head collapse from four
      dispatches to one); every fused instruction skips the slots it
      covers, and each covered slot still holds a correct standalone
      instruction, so branches landing inside a fused region work;
    * the ``if/elif`` head is ordered by the post-fusion dynamic
      frequency and the cold tail dispatches through :data:`_COLD`, a
      handler table indexed by opcode (keeping ``pc``/branch/return
      handling — and the hot ops, where a per-op Python call would cost
      more than the identity ladder — in the loop itself).

    Every pristine opcode has an arm or a cold-table handler too, so an
    unquickened body runs through the same ladder, only without the
    fused shortcuts.
    """
    code = rm.quick_code
    if code is None:
        code = rm.info.code
    locals_: list[Any] = args if pc else args + rm.quick_pad
    stack: list[Any] = []
    samples = rm.samples
    tel = vm.telemetry
    tel_on = tel is not None and tel.enabled
    if tel_on:
        tel.count("interp.frames")
    try:
        while True:
            instr = code[pc]
            op = instr.op
            pc += 1
            if op is _LOAD_GETFIELD:
                a = instr.arg
                obj = locals_[a[0]]
                if obj is None:
                    raise NullPointerError(
                        f"null receiver reading field {a[2]!r}"
                    )
                stack.append(obj.fields[a[1]])
                pc += 1
            elif op is _LOAD:
                stack.append(locals_[instr.arg])
            elif op is _LOAD_LOAD:
                a = instr.arg
                stack.append(locals_[a[0]])
                stack.append(locals_[a[1]])
                pc += 1
            elif op is _CONST:
                stack.append(instr.arg)
            elif op is _GETFIELD:
                obj = stack.pop()
                if obj is None:
                    raise NullPointerError(
                        f"null receiver reading field {instr.arg[1]!r}"
                    )
                stack.append(obj.fields[instr.resolved])
            elif op is _INVOKEVIRTUAL_QUICK:
                ic = instr.resolved
                argc = ic.argc
                callargs = stack[-argc:]
                del stack[-argc:]
                receiver = callargs[0]
                if receiver is None:
                    raise NullPointerError(
                        f"null receiver calling {instr.arg[1]!r}"
                    )
                tib = receiver.tib
                if tib is ic.k0:
                    if tel_on:
                        tel.count("ic.hit")
                    rm0 = ic.r0
                    if rm0 is None:
                        result = ic.i0(vm, callargs)
                    else:
                        s0 = rm0.samples
                        s0.invocations += 1
                        s0.ticks += _ENTRY_TICKS
                        if s0.ticks >= s0.threshold:
                            vm.adaptive.on_hot(rm0)
                        result = interpret_quick(vm, rm0, callargs)
                elif tib is ic.k1:
                    if tel_on:
                        tel.count("ic.hit")
                    rm0 = ic.r1
                    if rm0 is None:
                        result = ic.i1(vm, callargs)
                    else:
                        s0 = rm0.samples
                        s0.invocations += 1
                        s0.ticks += _ENTRY_TICKS
                        if s0.ticks >= s0.threshold:
                            vm.adaptive.on_hot(rm0)
                        result = interpret_quick(vm, rm0, callargs)
                else:
                    result = ic.miss(vm, receiver, callargs)
                if ic.returns:
                    stack.append(result)
            elif op is _CMP_LT_JF:
                b = stack.pop()
                a = stack.pop()
                pc += 1
                if not (a < b):
                    target = instr.arg
                    if target < pc:
                        samples.ticks += 1
                        if samples.ticks >= samples.threshold:
                            entry = _backedge_promote(vm, rm, target, stack)
                            if entry is not None:
                                return entry(vm, locals_)
                    pc = target
            elif op is _JUMP_IF_FALSE:
                if not stack.pop():
                    target = instr.arg
                    if target < pc:
                        samples.ticks += 1
                        if samples.ticks >= samples.threshold:
                            entry = _backedge_promote(vm, rm, target, stack)
                            if entry is not None:
                                return entry(vm, locals_)
                    pc = target
            elif op is _ITER_LT_JF:
                a = instr.arg
                pc += 3
                if not (locals_[a[0]] < a[1]):
                    target = a[2]
                    if target < pc:
                        samples.ticks += 1
                        if samples.ticks >= samples.threshold:
                            entry = _backedge_promote(vm, rm, target, stack)
                            if entry is not None:
                                return entry(vm, locals_)
                    pc = target
            elif op is _INC:
                a = instr.arg
                i = a[0]
                locals_[i] = locals_[i] + a[1]
                pc += 3
            elif op is _ADD_PUTFIELD:
                second = instr.arg
                b = stack.pop()
                value = stack.pop() + b
                obj = stack.pop()
                if obj is None:
                    raise NullPointerError(
                        f"null receiver writing field {second.arg[1]!r}"
                    )
                obj.fields[second.resolved] = value
                # ``second`` IS the shared PUTFIELD Instr: its
                # ``state_hook`` is read live, so hooks installed
                # mid-run fire through the fused form too.
                hook = second.state_hook
                if hook is not None:
                    hook(vm, obj)
                pc += 1
            elif op is _FIELD_INC:
                a = instr.arg
                obj = locals_[a[0]]
                pf = a[1]
                if obj is None:
                    raise NullPointerError(
                        f"null receiver reading field {pf.arg[1]!r}"
                    )
                idx = pf.resolved
                obj.fields[idx] = obj.fields[idx] + a[2]
                # ``pf`` IS the shared PUTFIELD Instr; its state_hook is
                # read live so hooks installed mid-run fire here too.
                hook = pf.state_hook
                if hook is not None:
                    hook(vm, obj)
                pc += 5
            elif op is _ADD_STORE:
                b = stack.pop()
                locals_[instr.arg] = stack.pop() + b
                pc += 1
            elif op is _LOAD_CONST:
                a = instr.arg
                stack.append(locals_[a[0]])
                stack.append(a[1])
                pc += 1
            elif op is _STORE:
                locals_[instr.arg] = stack.pop()
            elif op is _ADD:
                b = stack.pop()
                stack[-1] = stack[-1] + b
            elif op is _ALOAD:
                idx = stack.pop()
                arr = stack.pop()
                if arr is None:
                    raise NullPointerError("null array in load")
                if not 0 <= idx < len(arr.data):
                    raise ArrayBoundsError(
                        f"index {idx} out of range [0, {len(arr.data)})"
                    )
                stack.append(arr.data[idx])
            elif op is _GETFIELD_RETURN:
                a = instr.arg
                obj = locals_[a[0]]
                if obj is None:
                    raise NullPointerError(
                        f"null receiver reading field {a[2]!r}"
                    )
                return obj.fields[a[1]]
            elif op is _LOAD_RETURN:
                return locals_[instr.arg]
            elif op is _RETURN:
                return stack.pop()
            elif op is _ADD_RETURN:
                b = stack.pop()
                return stack.pop() + b
            elif op is _RETURN_VOID:
                return None
            elif op is _JUMP:
                target = instr.arg
                if target < pc:
                    samples.ticks += 1
                    if samples.ticks >= samples.threshold:
                        entry = _backedge_promote(vm, rm, target, stack)
                        if entry is not None:
                            return entry(vm, locals_)
                pc = target
            elif op is _CMP_EQ_JF:
                b = stack.pop()
                a = stack.pop()
                eq = (a is b) if _is_ref(a) or _is_ref(b) else (a == b)
                pc += 1
                if not eq:
                    target = instr.arg
                    if target < pc:
                        samples.ticks += 1
                        if samples.ticks >= samples.threshold:
                            entry = _backedge_promote(vm, rm, target, stack)
                            if entry is not None:
                                return entry(vm, locals_)
                    pc = target
            elif op is _INVOKEINTERFACE_QUICK:
                ic = instr.resolved
                argc = ic.argc
                callargs = stack[-argc:]
                del stack[-argc:]
                receiver = callargs[0]
                if receiver is None:
                    raise NullPointerError(
                        f"null receiver calling {instr.arg[1]!r}"
                    )
                tib = receiver.tib
                if tib is ic.k0:
                    if tel_on:
                        tel.count("ic.hit")
                    rm0 = ic.r0
                    if rm0 is None:
                        result = ic.i0(vm, callargs)
                    else:
                        s0 = rm0.samples
                        s0.invocations += 1
                        s0.ticks += _ENTRY_TICKS
                        if s0.ticks >= s0.threshold:
                            vm.adaptive.on_hot(rm0)
                        result = interpret_quick(vm, rm0, callargs)
                elif tib is ic.k1:
                    if tel_on:
                        tel.count("ic.hit")
                    rm0 = ic.r1
                    if rm0 is None:
                        result = ic.i1(vm, callargs)
                    else:
                        s0 = rm0.samples
                        s0.invocations += 1
                        s0.ticks += _ENTRY_TICKS
                        if s0.ticks >= s0.threshold:
                            vm.adaptive.on_hot(rm0)
                        result = interpret_quick(vm, rm0, callargs)
                else:
                    result = ic.miss(vm, receiver, callargs)
                if ic.returns:
                    stack.append(result)
            elif op is _PUTFIELD:
                value = stack.pop()
                obj = stack.pop()
                if obj is None:
                    raise NullPointerError(
                        f"null receiver writing field {instr.arg[1]!r}"
                    )
                obj.fields[instr.resolved] = value
                # Quick code shares PUTFIELD/PUTSTATIC Instr objects
                # with ``info.code``, so hooks installed mid-run (the
                # online controller) are live in both bodies; the
                # installed hook IS the policy.
                hook = instr.state_hook
                if hook is not None:
                    hook(vm, obj)
            elif op is _MUL:
                b = stack.pop()
                stack[-1] = stack[-1] * b
            elif op is _IREM:
                b = stack.pop()
                stack[-1] = jx_rem(stack[-1], b)
            elif op is _SUB:
                b = stack.pop()
                stack[-1] = stack[-1] - b
            elif op is _ASTORE:
                value = stack.pop()
                idx = stack.pop()
                arr = stack.pop()
                if arr is None:
                    raise NullPointerError("null array in store")
                if not 0 <= idx < len(arr.data):
                    raise ArrayBoundsError(
                        f"index {idx} out of range [0, {len(arr.data)})"
                    )
                arr.data[idx] = value
            elif op is _LOAD_ADD:
                stack[-1] = stack[-1] + locals_[instr.arg]
                pc += 1
            elif op is _LOAD_SUB:
                stack[-1] = stack[-1] - locals_[instr.arg]
                pc += 1
            elif op is _LOAD_MUL:
                stack[-1] = stack[-1] * locals_[instr.arg]
                pc += 1
            elif op is _INVOKESTATIC:
                argc = instr.arg[2]
                callargs = stack[-argc:] if argc else []
                if argc:
                    del stack[-argc:]
                cell, returns = instr.resolved
                result = cell.compiled.invoke(vm, callargs)
                if returns:
                    stack.append(result)
            elif op is _INVOKESPECIAL:
                argc = instr.arg[2]
                callargs = stack[-argc:]
                del stack[-argc:]
                if callargs[0] is None:
                    raise NullPointerError(
                        f"null receiver calling {instr.arg[1]!r}"
                    )
                target_rm, returns = instr.resolved
                result = target_rm.compiled.invoke(vm, callargs)
                if returns:
                    stack.append(result)
            elif op is _CMP_LT:
                b = stack.pop()
                stack[-1] = stack[-1] < b
            elif op is _CMP_EQ:
                b = stack.pop()
                a = stack[-1]
                stack[-1] = (a is b) if _is_ref(a) or _is_ref(b) else (a == b)
            elif op is _IDIV:
                b = stack.pop()
                stack[-1] = jx_truncate_div(stack[-1], b)
            elif op is _ARRAYLEN:
                arr = stack.pop()
                if arr is None:
                    raise NullPointerError("null array in length")
                stack.append(len(arr.data))
            elif op is _POP:
                stack.pop()
            elif op is _DUP:
                stack.append(stack[-1])
            elif op is _JUMP_IF_TRUE:
                if stack.pop():
                    target = instr.arg
                    if target < pc:
                        samples.ticks += 1
                        if samples.ticks >= samples.threshold:
                            entry = _backedge_promote(vm, rm, target, stack)
                            if entry is not None:
                                return entry(vm, locals_)
                    pc = target
            elif op is _CMP_LE:
                b = stack.pop()
                stack[-1] = stack[-1] <= b
            elif op is _CMP_GT:
                b = stack.pop()
                stack[-1] = stack[-1] > b
            elif op is _CMP_GE:
                b = stack.pop()
                stack[-1] = stack[-1] >= b
            elif op is _CMP_NE:
                b = stack.pop()
                a = stack[-1]
                stack[-1] = (
                    (a is not b) if _is_ref(a) or _is_ref(b) else (a != b)
                )
            elif op is _INTRINSIC:
                intr = instr.resolved
                n = intr.nargs
                if n:
                    callargs = stack[-n:]
                    del stack[-n:]
                    result = intr.fn(vm.intrinsic_ctx, *callargs)
                else:
                    result = intr.fn(vm.intrinsic_ctx)
                if intr.returns:
                    stack.append(result)
            elif op is _CONCAT:
                b = stack.pop()
                stack[-1] = jx_str(stack[-1]) + jx_str(b)
            elif op is _GETSTATIC:
                stack.append(vm.jtoc.get(instr.resolved))
            elif op is _PUTSTATIC:
                vm.jtoc.set(instr.resolved, stack.pop())
                hook = instr.state_hook
                if hook is not None:
                    hook(vm, None)
            elif op is _INVOKEVIRTUAL:
                # A pristine body, or a megamorphic site de-quickened
                # back to the plain path.
                argc = instr.arg[2]
                callargs = stack[-argc:]
                del stack[-argc:]
                receiver = callargs[0]
                if receiver is None:
                    raise NullPointerError(
                        f"null receiver calling {instr.arg[1]!r}"
                    )
                offset, returns = instr.resolved
                result = receiver.tib.entries[offset].invoke(vm, callargs)
                if returns:
                    stack.append(result)
            elif op is _INVOKEINTERFACE:
                argc = instr.arg[2]
                callargs = stack[-argc:]
                del stack[-argc:]
                receiver = callargs[0]
                if receiver is None:
                    raise NullPointerError(
                        f"null receiver calling {instr.arg[1]!r}"
                    )
                slot, key, returns = instr.resolved
                compiled = receiver.tib.imt.dispatch(receiver, slot, key)
                result = compiled.invoke(vm, callargs)
                if returns:
                    stack.append(result)
            else:
                handler = _COLD[op]
                if handler is None:  # pragma: no cover
                    raise VMRuntimeError(f"unhandled opcode {op!r}")
                handler(vm, instr, stack)
    except JxStackTrace as trace:
        trace.frames.append(_frame_desc(rm, code, pc))
        raise
    except VMRuntimeError as exc:
        if tel_on:
            tel.count("interp.errors")
        raise JxStackTrace(exc, [_frame_desc(rm, code, pc)]) from exc


def _backedge_promote(vm: Any, rm: Any, target: int, stack: list) -> Any:
    """A back-edge crossed ``rm``'s threshold: promote it, and return
    the OSR continuation to finish this frame in, or ``None`` to keep
    interpreting.

    Cold path — the promotion retires the threshold or moves it far
    away, so this runs once per promotion.  A frame transfers only at
    an empty operand stack, where its locals are the whole frame.
    """
    vm.adaptive.on_hot(rm)
    osr = vm.osr
    if osr is not None and not stack and rm.compiled.opt_level > 0:
        return osr.entry_for(rm, target)
    return None


# ----------------------------------------------------------------------
# Cold-tail handler table: straight-line stack ops the quick loop's hot
# head never sees in measured workloads.  Handlers take (vm, instr,
# stack) and never touch pc — all branch/return/locals ops stay in the
# loop, so the table stays trivially composable.
# ----------------------------------------------------------------------


def _h_fdiv(vm: Any, instr: Any, stack: list) -> None:
    b = stack.pop()
    if b == 0:
        stack[-1] = float("nan") if stack[-1] == 0 else (
            float("inf") if stack[-1] > 0 else float("-inf")
        )
    else:
        stack[-1] = stack[-1] / b


def _h_neg(vm: Any, instr: Any, stack: list) -> None:
    stack[-1] = -stack[-1]


def _h_not(vm: Any, instr: Any, stack: list) -> None:
    stack[-1] = not stack[-1]


def _h_i2d(vm: Any, instr: Any, stack: list) -> None:
    stack[-1] = float(stack[-1])


def _h_d2i(vm: Any, instr: Any, stack: list) -> None:
    stack[-1] = int(stack[-1])


def _h_shl(vm: Any, instr: Any, stack: list) -> None:
    b = stack.pop()
    stack[-1] = stack[-1] << b


def _h_shr(vm: Any, instr: Any, stack: list) -> None:
    b = stack.pop()
    stack[-1] = stack[-1] >> b


def _h_band(vm: Any, instr: Any, stack: list) -> None:
    b = stack.pop()
    stack[-1] = stack[-1] & b


def _h_bor(vm: Any, instr: Any, stack: list) -> None:
    b = stack.pop()
    stack[-1] = stack[-1] | b


def _h_bxor(vm: Any, instr: Any, stack: list) -> None:
    b = stack.pop()
    stack[-1] = stack[-1] ^ b


def _h_instanceof(vm: Any, instr: Any, stack: list) -> None:
    obj = stack.pop()
    stack.append(
        obj is not None
        and instr.resolved.name in obj.tib.type_info.all_supertypes
    )


def _h_checkcast(vm: Any, instr: Any, stack: list) -> None:
    obj = stack[-1]
    if (
        obj is not None
        and instr.resolved.name not in obj.tib.type_info.all_supertypes
    ):
        raise ClassCastError(
            f"cannot cast {obj.tib.type_info.name} to "
            f"{instr.resolved.name}"
        )


def _h_new(vm: Any, instr: Any, stack: list) -> None:
    stack.append(instr.resolved.allocate(vm))


def _h_newarray(vm: Any, instr: Any, stack: list) -> None:
    length = stack.pop()
    arr = VMArray(instr.arg, length, instr.resolved)
    vm.heap.record_array(length, instr.arg)
    stack.append(arr)


def _h_swap(vm: Any, instr: Any, stack: list) -> None:
    stack[-1], stack[-2] = stack[-2], stack[-1]


def _h_nop(vm: Any, instr: Any, stack: list) -> None:
    pass


def _build_cold_table() -> list:
    table: list[Any] = [None] * (max(Op) + 1)
    table[_FDIV] = _h_fdiv
    table[_NEG] = _h_neg
    table[_NOT] = _h_not
    table[_I2D] = _h_i2d
    table[_D2I] = _h_d2i
    table[_SHL] = _h_shl
    table[_SHR] = _h_shr
    table[_BAND] = _h_band
    table[_BOR] = _h_bor
    table[_BXOR] = _h_bxor
    table[_INSTANCEOF] = _h_instanceof
    table[_CHECKCAST] = _h_checkcast
    table[_NEW] = _h_new
    table[_NEWARRAY] = _h_newarray
    table[_SWAP] = _h_swap
    table[_NOP] = _h_nop
    return table


_COLD = _build_cold_table()


def _frame_desc(rm: Any, code: list, pc: int) -> str:
    index = max(0, min(pc - 1, len(code) - 1))
    line = code[index].line if code else 0
    return f"{rm.qualified_name} (line {line})"


def _is_ref(value: Any) -> bool:
    """True for reference values whose ``==`` must mean identity."""
    return value is not None and not isinstance(
        value, (int, float, str, bool)
    )
