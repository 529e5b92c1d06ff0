"""Width-packed heap accounting for instances.

Each class is charged its object header plus the 8-aligned sum of its
instance fields' modeled widths (:data:`repro.vm.heap.WIDTH_BYTES`),
as arrays are charged per element width.  Field reordering is assumed
to remove interior padding, so the widths sum directly and only the
object end is aligned.  The declared-field baseline (one machine word
per field) is charged alongside.  Only the modeled byte counts change:
storage stays one Python list element per field, in the linker's slot
order.
"""

from __future__ import annotations

from typing import Any

from repro.vm.heap import OBJECT_HEADER_BYTES, WIDTH_BYTES, WORD_BYTES, align8


def field_width(jx_type: Any) -> int:
    """Modeled width of one field of static type ``jx_type``."""
    if jx_type.is_array:
        return WORD_BYTES
    return WIDTH_BYTES.get(jx_type.name, WORD_BYTES)


def install_shapes(vm: Any) -> None:
    """Set every class's modeled and declared instance size."""
    field_bytes: dict[str, int] = {}
    # vm.classes is in linker order: a superclass precedes its subclasses.
    for rc in vm.classes.values():
        if rc.is_interface:
            continue
        own = sum(
            field_width(f.type)
            for f in rc.info.fields.values()
            if not f.is_static
        )
        total = own + (field_bytes[rc.super_rc.name] if rc.super_rc else 0)
        field_bytes[rc.name] = total
        rc.alloc_bytes = OBJECT_HEADER_BYTES + align8(total)
        rc.declared_bytes = OBJECT_HEADER_BYTES + rc.num_fields * WORD_BYTES
