"""Heap accounting.

JxVM does not implement a collector (Python's GC owns object lifetime);
what the reproduction needs from the memory system is *accounting*:
per-class allocation counts and modeled byte volumes, used by the
workload reports and to sanity-check that the SPECjbb2005 port really is
more allocation-heavy than SPECjbb2000 (paper §7.1).

Objects are charged their width-packed size at allocation
(:mod:`repro.vm.shapes`): the header plus the 8-aligned sum of their
fields' widths, with the declared-field size (one word per field)
tracked alongside.  Arrays are charged per element width from the same
table — an ``int`` element is 4 modeled bytes, a ``boolean``/``byte``
element 1 — not a flat machine word per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Modeled object header: TIB pointer + status word.
OBJECT_HEADER_BYTES = 16
WORD_BYTES = 8

#: Modeled widths of primitive fields and array elements by type name;
#: class references, strings, arrays and unknown types are one machine
#: word.
WIDTH_BYTES = {
    "int": 4,
    "boolean": 1,
    "byte": 1,
    "char": 2,
    "double": 8,
    "long": 8,
}


def align8(n: int) -> int:
    """Round up to the modeled 8-byte object alignment."""
    return (n + 7) & ~7


@dataclass
class HeapStats:
    """Aggregate allocation statistics."""

    objects_allocated: int = 0
    arrays_allocated: int = 0
    #: Modeled object bytes as charged at allocation (width-packed).
    object_bytes: int = 0
    #: What the same objects would cost under declared-field accounting
    #: (header + one word per declared field) — the packing baseline.
    declared_object_bytes: int = 0
    array_bytes: int = 0
    per_class: dict[str, int] = field(default_factory=dict)
    per_class_bytes: dict[str, int] = field(default_factory=dict)
    #: Inert, always 0: benchmarks/jxbench/protocol.py:236 reads it.
    shape_transitions: int = 0

    @property
    def bytes_allocated(self) -> int:
        """Total modeled allocation volume (objects + arrays)."""
        return self.object_bytes + self.array_bytes

    def record_object(
        self, class_name: str, size_bytes: int, declared_bytes: int
    ) -> None:
        self.objects_allocated += 1
        self.object_bytes += size_bytes
        self.declared_object_bytes += declared_bytes
        self.per_class[class_name] = self.per_class.get(class_name, 0) + 1
        self.per_class_bytes[class_name] = (
            self.per_class_bytes.get(class_name, 0) + size_bytes
        )

    def record_array(self, length: int, elem_type: str | None = None) -> None:
        width = WIDTH_BYTES.get(elem_type, WORD_BYTES)
        self.arrays_allocated += 1
        self.array_bytes += OBJECT_HEADER_BYTES + align8(length * width)

    def modeled_object_bytes(self) -> int:
        """Modeled object volume: the width-packed allocation charges."""
        return self.object_bytes

    def top_classes(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` most-allocated classes, descending."""
        return sorted(
            self.per_class.items(), key=lambda kv: (-kv[1], kv[0])
        )[:n]

    def top_classes_by_bytes(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` classes with the most modeled bytes, descending."""
        return sorted(
            self.per_class_bytes.items(), key=lambda kv: (-kv[1], kv[0])
        )[:n]
