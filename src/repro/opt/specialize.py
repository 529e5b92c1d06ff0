"""State-field specialization — the mutation payload.

Given *bindings* (known constant values for state fields of the
receiver's class, and/or static state fields), rewrite the IR so those
field loads become constants.  Constant propagation, branch folding,
and DCE then collapse the state-dispatch logic; **no value guard is
emitted** — correctness is maintained purely by the TIB-swap protocol
(paper §2.2: "No value guarding is needed for the specialized code").

Instance-field bindings only apply to loads whose receiver provably
aliases ``this`` (local 0): other instances of the same class may be in
other states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.opt.ir import Const, IRFunction, IRInstr, Reg


@dataclass
class SpecBindings:
    """Constant bindings for one specialization request.

    ``instance``: field slot -> value (applies to loads off ``this``).
    ``static``: JTOC slot -> value.
    ``label``: human-readable state description, for diagnostics.
    ``tib``: the special TIB this version speculates on, when the
    bindings cover instance state — the OSR pass guards mid-frame state
    writes against it (:func:`repro.vm.osr.insert_deopt_points`);
    ``None`` for static-only specials (no per-object TIB to guard).
    """

    instance: dict[int, Any] = field(default_factory=dict)
    static: dict[int, Any] = field(default_factory=dict)
    label: str = ""
    tib: Any = None

    def __bool__(self) -> bool:
        return bool(self.instance) or bool(self.static)

    def cache_key_payload(self) -> list:
        """The persistent-compile-cache key contribution: every slot
        and value that steers specialization, in canonical order.  The
        ``label`` is deliberately excluded — it is diagnostic text, and
        two requests binding the same slots to the same values must
        share one cache entry.  ``tib`` is excluded too: it is the
        runtime object *derived from* the instance bindings, so it adds
        no key information (the generated guard pins it symbolically,
        and the ``osr`` flag is part of the environment payload)."""
        return [
            sorted((slot, repr(v)) for slot, v in self.instance.items()),
            sorted((slot, repr(v)) for slot, v in self.static.items()),
        ]


def this_aliases(fn: IRFunction) -> set[str]:
    """Register names provably holding ``this`` (local 0).

    ``l0`` is never reassigned (Jx has no assignment to ``this``); a
    register aliases ``this`` iff *every* assignment to it is a mov from
    an aliasing register.  This is the least such set: a worklist grows
    it from ``l0``, retiring one pending assignment of each mov
    destination whenever that mov's source joins it.
    """
    pending: dict[str, int] = {}
    movs_from: dict[str, list[str]] = {}
    blocked: set[str] = set()
    for block in fn.block_order():
        for instr in block.instrs:
            if instr.dest is None:
                continue
            name = instr.dest.name
            if instr.op == "mov" and isinstance(instr.args[0], Reg):
                pending[name] = pending.get(name, 0) + 1
                movs_from.setdefault(instr.args[0].name, []).append(name)
            else:
                blocked.add(name)
    if "l0" in pending or "l0" in blocked:
        return set()  # paranoia: someone wrote to the receiver slot
    aliases = {"l0"}
    work = ["l0"]
    while work:
        for name in movs_from.get(work.pop(), ()):
            pending[name] -= 1
            if not pending[name] and name not in blocked:
                aliases.add(name)
                work.append(name)
    return aliases


def _written_instance_slots(fn: IRFunction, aliases: set[str]) -> set[int]:
    """Field slots this method itself writes through ``this``."""
    written: set[int] = set()
    for block in fn.block_order():
        for instr in block.instrs:
            if instr.op == "putfield":
                obj = instr.args[0]
                if isinstance(obj, Reg) and obj.name in aliases:
                    written.add(instr.extra.slot)
    return written


def _written_static_slots(fn: IRFunction) -> set[int]:
    return {
        instr.extra.slot
        for block in fn.block_order()
        for instr in block.instrs
        if instr.op == "putstatic"
    }


def specialize_ir(fn: IRFunction, bindings: SpecBindings) -> int:
    """Replace bound state-field loads with constants; returns count.

    Fields the method itself writes are conservatively left alone (a
    read after the write must observe the new value).
    """
    aliases = this_aliases(fn)
    skip_instance = _written_instance_slots(fn, aliases)
    skip_static = _written_static_slots(fn)
    replaced = 0
    for block in fn.block_order():
        for i, instr in enumerate(block.instrs):
            if (
                instr.op == "getfield"
                and instr.extra.slot in bindings.instance
                and instr.extra.slot not in skip_instance
            ):
                obj = instr.args[0]
                if isinstance(obj, Reg) and obj.name in aliases:
                    block.instrs[i] = IRInstr(
                        "mov",
                        instr.dest,
                        [Const(bindings.instance[instr.extra.slot])],
                        line=instr.line,
                    )
                    replaced += 1
            elif (
                instr.op == "getstatic"
                and instr.extra.slot in bindings.static
                and instr.extra.slot not in skip_static
            ):
                block.instrs[i] = IRInstr(
                    "mov",
                    instr.dest,
                    [Const(bindings.static[instr.extra.slot])],
                    line=instr.line,
                )
                replaced += 1
    return replaced
