"""Shape-based packed object layout (ROADMAP: "Shape-based packed
object layout").

Following "Adaptive JIT Value Class Optimization" (Pape, Bolz &
Hirschfeld), each (class, hot-state) pair owns a :class:`Shape`: a
packed slot layout hung off the TIB.  Three things shrink an object
relative to the declared-field model:

* **Packing** — modeled bytes use declared field-type widths (``int`` 4,
  ``boolean``/``byte`` 1, ``char`` 2, ``double``/``long`` 8, references
  8) summed and rounded up to 8-byte object alignment, instead of one
  machine word per declared field.  Physical storage stays one Python
  list element per residual field; the *modeled* heap shrinks, which is
  what the Fig. 13-15 heap-population accounting measures.
* **Constant unboxing** — a field every constructor provably assigns
  the same literal (and nothing else ever writes) is removed from the
  instance entirely; its :class:`UnboxedField` slot serves reads from
  the shape side.  The proof reuses the lifetime-constant machinery
  (:mod:`repro.mutation.lifetime`) plus constructor-escape checks.
* **Hot-state pinning** — a mutable class's own state fields are laid
  out at the *tail* of its slot array; the special TIB of a hot state
  carries a pinning shape whose ``pinned`` table holds the state values,
  so instances entering the hot state drop the tail storage and
  rematerialize it on exit.  A TIB swap is thereby a layout transition
  (:func:`transition`), batched by the PR 3 coalescer and policed by
  the PR 7 deopt guards exactly like any other swap.

Slot identity is preserved by construction: :class:`ShapeField` *is*
its packed index (an ``int`` subclass), so every existing consumer —
specialization bindings, state-read sets, inline caches, cache-key
payloads — keeps working on packed slots unchanged.  Soundness of
pinning rests on the mutation manager's exact-class checks: a special
TIB of class ``C`` is only ever installed on an object whose dynamic
type is exactly ``C``, whose storage length is therefore exactly
``C``'s slot count, making ``C``'s own state fields the trailing slots.
"""

from __future__ import annotations

from typing import Any

from repro.bytecode.classfile import CONSTRUCTOR_NAME, FieldInfo, ProgramUnit
from repro.bytecode.opcodes import CALL_OPS, Op
from repro.telemetry.core import maybe as _tel_maybe
from repro.vm.heap import OBJECT_HEADER_BYTES, WORD_BYTES
from repro.vm.slots import ShapeField, UnboxedField

#: Modeled widths of packed primitive fields; everything else (class
#: references, strings, arrays) is one machine word.
FIELD_WIDTH_BYTES = {
    "int": 4,
    "boolean": 1,
    "byte": 1,
    "char": 2,
    "double": 8,
    "long": 8,
}


def field_width(jx_type: Any) -> int:
    """Packed width of one field of static type ``jx_type``."""
    if jx_type.is_array or not jx_type.is_primitive:
        return WORD_BYTES
    return FIELD_WIDTH_BYTES.get(jx_type.name, WORD_BYTES)


def align8(n: int) -> int:
    """Round up to the modeled 8-byte object alignment."""
    return (n + 7) & ~7


def packed_bytes(field_infos: list) -> int:
    """Modeled object size for a packed run of fields (header included).
    Field reordering is assumed to eliminate interior padding, so the
    widths sum directly and only the object end is aligned."""
    return OBJECT_HEADER_BYTES + align8(
        sum(field_width(f.type) for f in field_infos)
    )


class Shape:
    """One packed layout: a (class, hot-state) pair's field geometry."""

    __slots__ = (
        "class_name",
        "n_slots",
        "size_bytes",
        "tail",
        "tail_bytes",
        "pinned",
        "state_key",
    )

    def __init__(
        self,
        class_name: str,
        n_slots: int,
        size_bytes: int,
        tail: tuple = (),
        tail_bytes: int = 0,
        pinned: dict | None = None,
        state_key: Any = None,
    ) -> None:
        self.class_name = class_name
        #: Physical slot count instances with this shape store.
        self.n_slots = n_slots
        #: Modeled bytes of one instance with this shape.
        self.size_bytes = size_bytes
        #: Pinned-slot values in slot order — what rematerialization
        #: appends when the object leaves this shape.
        self.tail = tail
        #: Modeled bytes the dropped tail is worth.
        self.tail_bytes = tail_bytes
        #: slot -> pinned value, for guarded reads of truncated slots.
        self.pinned = pinned if pinned is not None else {}
        self.state_key = state_key

    @property
    def is_pinning(self) -> bool:
        return bool(self.tail)

    def __repr__(self) -> str:
        kind = f"pin:{self.state_key}" if self.is_pinning else "base"
        return (
            f"<Shape {self.class_name} [{kind}] {self.n_slots} slots "
            f"{self.size_bytes}B>"
        )


def pinned_shape(rc: Any, state_key: Any, values_by_slot: dict) -> Any:
    """The pinning shape for one hot state of ``rc``, or the class's
    base shape when the class has no pinnable tail (or shapes are off).
    ``values_by_slot`` maps every plan state slot to its bound value."""
    base = rc.class_tib.shape
    if base is None or not rc.pin_slots:
        return base
    pinned = {s: values_by_slot[s] for s in rc.pin_slots}
    return Shape(
        class_name=rc.name,
        n_slots=base.n_slots - len(rc.pin_slots),
        size_bytes=rc.pinned_alloc_bytes,
        tail=tuple(values_by_slot[s] for s in rc.pin_slots),
        tail_bytes=base.size_bytes - rc.pinned_alloc_bytes,
        pinned=pinned,
        state_key=state_key,
    )


def transition(vm: Any, obj: Any, old_shape: Any, new_shape: Any) -> None:
    """Migrate ``obj``'s packed storage after a TIB swap changed its
    shape.  Every call site has just performed (and counted) the swap,
    so each ``shape_transition`` is paired with a ``record_swap``."""
    if old_shape is new_shape or new_shape is None or old_shape is None:
        return
    f = obj.fields
    n = new_shape.n_slots
    if len(f) > n:
        # Entering a hot state: the pinned tail drops its storage.
        del f[n:]
        vm.heap.pinned_bytes_dropped += new_shape.tail_bytes
    elif len(f) < n:
        # Leaving a hot state: rematerialize the old shape's tail.
        f.extend(old_shape.tail)
        vm.heap.pinned_bytes_restored += old_shape.tail_bytes
    else:
        # Same slot count (pin -> pin): reads consult the new pinned
        # table; nothing physical moves.
        return
    vm.heap.shape_transitions += 1
    tel = _tel_maybe(vm.telemetry)
    if tel is not None:
        tel.emit(
            "shape_transition",
            cls=new_shape.class_name,
            from_slots=old_shape.n_slots,
            to_slots=n,
        )
        tel.count("shapes.transitions")


# ---------------------------------------------------------------------------
# Unboxing proof
# ---------------------------------------------------------------------------

def _is_init_special(instr: Any) -> bool:
    return (
        instr.op is Op.INVOKESPECIAL
        and instr.arg[1].startswith(CONSTRUCTOR_NAME)
    )


def _ctor_assignment_clean(
    unit: ProgramUnit, method: Any, field_key: tuple
) -> bool:
    """True if ``method`` (a constructor) assigns ``field_key`` before
    the receiver can escape and never reads it.

    The assignment must precede every operation through which ``this``
    could become reachable to code observing the still-default field: a
    call (super-constructor chaining excepted — see
    :func:`_super_ctors_clean`), a static store, or an array store.
    """
    last_put = -1
    first_escape = len(method.code)
    for i, instr in enumerate(method.code):
        op = instr.op
        if op in (Op.GETFIELD, Op.PUTFIELD):
            finfo = unit.lookup_field(*instr.arg)
            if finfo is not None and finfo.key == field_key:
                if op is Op.GETFIELD:
                    return False  # read-before-write hazard
                last_put = i
        elif (
            (op in CALL_OPS and not _is_init_special(instr))
            or op in (Op.PUTSTATIC, Op.ASTORE)
        ) and i < first_escape:
            first_escape = i
    return 0 <= last_put < first_escape


def _super_ctors_clean(unit: ProgramUnit, class_name: str) -> bool:
    """True if no transitive super-constructor can dispatch virtually
    back down into the class under construction (which could read a
    not-yet-assigned field)."""
    cls = unit.classes.get(class_name)
    cls = unit.classes.get(cls.super_name) if cls and cls.super_name else None
    while cls is not None:
        for method in cls.constructors():
            for instr in method.code:
                if instr.op in (Op.INVOKEVIRTUAL, Op.INVOKEINTERFACE):
                    return False
        cls = unit.classes.get(cls.super_name) if cls.super_name else None
    return True


def unboxable_fields(
    unit: ProgramUnit, class_name: str, state_keys: set
) -> dict[str, Any]:
    """Field name -> proven constant, for fields of ``class_name``
    eligible for unboxing.

    A field qualifies iff it is instance-declared in ``class_name``
    itself, ``class_name`` is a leaf class with at least one
    constructor, every constructor assigns the field the same literal
    (per :func:`ctor_constant_fields`), nothing outside the
    constructors ever writes it, it is not a mutation-plan state field,
    and the assignment provably happens before the receiver escapes
    (:func:`_ctor_assignment_clean`, :func:`_super_ctors_clean`).
    """
    # Imported here: the mutation package imports this module (through
    # its manager), so a module-level import would be a cycle.
    from repro.mutation.lifetime import (
        ctor_constant_fields,
        fields_assigned_outside_ctors,
    )

    cls = unit.classes.get(class_name)
    if cls is None or cls.is_interface:
        return {}
    ctors = cls.constructors()
    if not ctors or unit.subclasses_of(class_name):
        return {}
    agreed: set | None = None
    for consts in ctor_constant_fields(unit, class_name).values():
        items = set(consts.items())
        agreed = items if agreed is None else agreed & items
    if not agreed:
        return {}
    outside = fields_assigned_outside_ctors(unit, class_name)
    if not _super_ctors_clean(unit, class_name):
        return {}
    out: dict[str, Any] = {}
    for fkey, value in sorted(agreed, key=lambda kv: kv[0]):
        decl, _, fname = fkey.partition(".")
        if decl != class_name or fkey in outside:
            continue
        finfo = cls.fields.get(fname)
        if finfo is None or finfo.is_static:
            continue
        if (decl, fname) in state_keys:
            continue
        if all(
            _ctor_assignment_clean(unit, ctor, finfo.key) for ctor in ctors
        ):
            out[fname] = value
    return out


# ---------------------------------------------------------------------------
# Layout installation
# ---------------------------------------------------------------------------

def install_shapes(vm: Any, plan: Any) -> None:
    """Recompute every class's field layout as a packed shape.

    Runs after linking and *before* the mutation manager attaches, so
    the manager's slot lookups (state hooks, specialization bindings,
    lifetime-constant publication) all see packed slots.  Idempotent to
    skip: with live objects the layouts are frozen (the online
    controller attaches plans mid-run; those VMs keep declared layouts).
    """
    if vm.heap.objects_allocated:
        return
    unit: ProgramUnit = vm.unit
    tel = _tel_maybe(vm.telemetry)

    # Instance state-field identities from the mutation plan: these must
    # stay boxed (pinning handles them) and, when declared by the plan
    # class itself, sink to the layout tail so hot states can drop them.
    state_keys: set[tuple[str, str]] = set()
    planned: set[str] = set()
    if plan is not None:
        for cp in plan.classes.values():
            planned.add(cp.class_name)
            for spec in cp.instance_fields:
                state_keys.add((spec.declaring_class, spec.field_name))

    unboxed_count = 0
    # vm.classes is in linker topological order: supers precede subs, so
    # a class's packed prefix (its super's layout) is already final.
    packed: dict[str, list[FieldInfo]] = {}
    for rc in vm.classes.values():
        if rc.is_interface:
            continue
        info = rc.info
        base = packed.get(rc.super_rc.name, []) if rc.super_rc else []
        own = [f for f in info.fields.values() if not f.is_static]
        unbox = unboxable_fields(unit, rc.name, state_keys)
        ordinary: list[FieldInfo] = []
        tail: list[FieldInfo] = []
        for finfo in own:
            if finfo.name in unbox:
                continue
            if rc.name in planned and (rc.name, finfo.name) in state_keys:
                tail.append(finfo)
            else:
                ordinary.append(finfo)
        layout = base + ordinary + tail
        packed[rc.name] = layout

        for idx, finfo in enumerate(layout[len(base):], start=len(base)):
            if finfo in tail:
                finfo.slot = ShapeField(idx, finfo.name)
            else:
                finfo.slot = idx
        for finfo in own:
            if finfo.name in unbox:
                finfo.slot = UnboxedField(
                    rc.name, finfo.name, unbox[finfo.name]
                )
                unboxed_count += 1
                if tel is not None:
                    tel.emit(
                        "field_unboxed",
                        cls=rc.name,
                        field=finfo.name,
                        value=repr(unbox[finfo.name]),
                    )

        rc.field_layout = {f.name: int(f.slot) for f in layout}
        rc.field_defaults = [f.type.default_value() for f in layout]
        rc.num_fields = len(layout)
        rc.alloc_bytes = packed_bytes(layout)
        rc.declared_bytes = (
            OBJECT_HEADER_BYTES + (len(layout) + len(unbox)) * WORD_BYTES
        )
        rc.pin_slots = tuple(int(f.slot) for f in tail)
        rc.pinned_alloc_bytes = packed_bytes(layout[: len(layout) - len(tail)])
        rc.class_tib.shape = Shape(
            class_name=rc.name,
            n_slots=len(layout),
            size_bytes=rc.alloc_bytes,
        )

    if tel is not None and unboxed_count:
        tel.count("shapes.fields_unboxed", unboxed_count)

    # Field slots moved: re-resolve every field-access site against the
    # new layout (the linker's resolution is idempotent).
    for rc in vm.classes.values():
        for rm in rc.own_methods.values():
            if rm.info.is_abstract:
                continue
            for instr in rm.info.code:
                if instr.op in (Op.GETFIELD, Op.PUTFIELD):
                    finfo = unit.lookup_field(*instr.arg)
                    if finfo is not None:
                        instr.resolved = finfo.slot
