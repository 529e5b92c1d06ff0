"""Abstract stack simulation over bytecode.

A light symbolic executor shared by the offline analyses: it walks one
method linearly, modeling the operand stack with symbolic values, and
resets to unknowns at block boundaries (the analyses only need
intra-block patterns — ``this.f = CONST`` in constructors, field loads
feeding branches, ``new C(...)`` flowing into a putfield).

Symbolic values:

* ``("const", v)`` — a literal;
* ``("this",)`` — local 0 of an instance method;
* ``("local", i)`` — any other local read;
* ``("fieldload", "Cls.name", receiver)`` — a field read;
* ``("new", class_name, ctor_key)`` — a freshly constructed object;
* ``("other",)`` — anything else.

Taint tracking: each value carries the set of field keys that
contributed to it, which the EQ1 analysis uses to credit branch uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.bytecode.classfile import MethodInfo
from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import CALL_OPS, OP_INFO, Op
from repro.bytecode.verify import verify_method
from repro.opt.bytecode_cfg import BytecodeCFG

OTHER = ("other",)


@dataclass
class SymValue:
    """A symbolic stack value with field-taint."""

    kind: tuple
    taint: frozenset[str] = frozenset()

    @staticmethod
    def other(taint: frozenset[str] = frozenset()) -> "SymValue":
        return SymValue(OTHER, taint)


class StackEvent:
    """Callbacks invoked by the walker; subclass and override."""

    def on_branch(self, index: int, instr: Instr, cond: SymValue) -> None:
        """A conditional branch consuming ``cond``."""

    def on_putfield(
        self, index: int, instr: Instr, receiver: SymValue, value: SymValue
    ) -> None:
        """An instance field store."""

    def on_putstatic(self, index: int, instr: Instr, value: SymValue) -> None:
        """A static field store."""

    def on_call(
        self, index: int, instr: Instr, args: list[SymValue]
    ) -> None:
        """Any call (receiver is args[0] for instance dispatch)."""

    def on_return(self, index: int, instr: Instr, value: SymValue) -> None:
        """A value-returning return."""

    def on_astore(
        self, index: int, instr: Instr, value: SymValue
    ) -> None:
        """An array element store (value operand only)."""

    def on_local_store(
        self, index: int, instr: Instr, local: int, value: SymValue
    ) -> None:
        """A store to a local slot."""


def _call_returns(instr: Instr, unit: Any = None) -> bool:
    """Whether a call-shaped instruction pushes a result.

    Prefers linked resolution state; falls back to signature lookup via
    ``unit`` (the analyses usually run on unlinked programs).
    """
    resolved = instr.resolved
    if isinstance(resolved, tuple):
        return bool(resolved[-1])
    if resolved is not None and hasattr(resolved, "returns"):
        return resolved.returns
    if instr.op is Op.INTRINSIC:
        from repro.vm.intrinsics import INTRINSICS

        return INTRINSICS[instr.arg[0]].returns
    if unit is not None:
        cls_name, key, _ = instr.arg
        target = unit.lookup_method(cls_name, key)
        if target is None:
            target = _iface_lookup(unit, cls_name, key)
        if target is not None:
            return target.return_type.name != "void"
    # Constructors never push; otherwise assume a result.
    _, key, _ = instr.arg
    return not key.startswith("<init>")


def _iface_lookup(unit: Any, iface_name: str, key: str):
    iface = unit.classes.get(iface_name)
    if iface is None:
        return None
    if key in iface.methods:
        return iface.methods[key]
    for sup in iface.interface_names:
        found = _iface_lookup(unit, sup, key)
        if found is not None:
            return found
    return None


def walk_method(
    method: MethodInfo,
    events: StackEvent,
    call_returns: dict[int, bool] | None = None,
    unit: Any = None,
) -> None:
    """Run the abstract walk over ``method``, firing ``events``."""
    code = method.code
    if not code:
        return
    if call_returns is None:
        call_returns = {}
        for i, instr in enumerate(code):
            if instr.op in CALL_OPS or instr.op is Op.INTRINSIC:
                call_returns[i] = _call_returns(instr, unit)
    depths = verify_method(method, call_returns)

    # Block leaders: reset points.
    leaders = {block.start for block in BytecodeCFG(method).blocks}

    is_instance = not method.is_static
    stack: list[SymValue] = []

    for i, instr in enumerate(code):
        if i in leaders:
            stack = [SymValue.other() for _ in range(depths[i])]
        op = instr.op
        if op is Op.CONST:
            stack.append(SymValue(("const", instr.arg)))
        elif op is Op.LOAD:
            if instr.arg == 0 and is_instance:
                stack.append(SymValue(("this",)))
            else:
                stack.append(SymValue(("local", instr.arg)))
        elif op is Op.STORE:
            value = stack.pop()
            events.on_local_store(i, instr, instr.arg, value)
        elif op is Op.GETFIELD:
            receiver = stack.pop()
            cls_name, field_name = instr.arg
            key = f"{cls_name}.{field_name}"
            stack.append(
                SymValue(
                    ("fieldload", key, receiver.kind),
                    receiver.taint | {key},
                )
            )
        elif op is Op.GETSTATIC:
            cls_name, field_name = instr.arg
            key = f"{cls_name}.{field_name}"
            stack.append(SymValue(("fieldload", key, OTHER), frozenset({key})))
        elif op is Op.PUTFIELD:
            value = stack.pop()
            receiver = stack.pop()
            events.on_putfield(i, instr, receiver, value)
        elif op is Op.PUTSTATIC:
            value = stack.pop()
            events.on_putstatic(i, instr, value)
        elif op is Op.NEW:
            stack.append(SymValue(("newraw", instr.arg)))
        elif op in CALL_OPS:
            cls_name, key, argc = instr.arg
            args = stack[-argc:] if argc else []
            if argc:
                del stack[-argc:]
            events.on_call(i, instr, args)
            if op is Op.INVOKESPECIAL and key.startswith("<init>"):
                # Mark the remaining alias of the NEW as constructed.
                if stack and stack[-1].kind[0] == "newraw" and args and (
                    args[0].kind == stack[-1].kind
                    or args[0].kind[0] == "newraw"
                ):
                    stack[-1] = SymValue(("new", cls_name, key))
            if call_returns.get(i, True):
                taint = frozenset().union(*(a.taint for a in args)) if args \
                    else frozenset()
                stack.append(SymValue.other(taint))
        elif op is Op.INTRINSIC:
            name, argc = instr.arg
            args = stack[-argc:] if argc else []
            if argc:
                del stack[-argc:]
            events.on_call(i, instr, args)
            if call_returns.get(i, True):
                taint = frozenset().union(*(a.taint for a in args)) if args \
                    else frozenset()
                stack.append(SymValue.other(taint))
        elif op is Op.JUMP_IF_TRUE or op is Op.JUMP_IF_FALSE:
            cond = stack.pop()
            events.on_branch(i, instr, cond)
        elif op is Op.RETURN:
            value = stack.pop()
            events.on_return(i, instr, value)
        elif op is Op.ASTORE:
            value = stack.pop()
            stack.pop()
            stack.pop()
            events.on_astore(i, instr, value)
        elif op is Op.POP:
            stack.pop()
        elif op is Op.DUP:
            stack.append(stack[-1])
        elif op is Op.SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]
        else:
            info = OP_INFO[op]
            pops, pushes = info.pops, info.pushes
            popped = [stack.pop() for _ in range(pops)] if pops else []
            taint = (
                frozenset().union(*(p.taint for p in popped))
                if popped
                else frozenset()
            )
            for _ in range(pushes or 0):
                stack.append(SymValue.other(taint))
