"""Shape-managed field slots.

The two non-``int`` values a ``FieldInfo.slot`` can hold once packed
layouts are installed (:mod:`repro.vm.shapes`).  This module imports
nothing from ``repro``, so the compilers (:mod:`repro.opt.pycodegen`)
and the layout code can both depend on it without an import cycle
through the mutation package.
"""

from __future__ import annotations

from typing import Any


class ShapeField(int):
    """A packed slot index for a pinnable state field.

    Subclasses ``int`` so that *being* the index keeps every slot
    consumer working (dict keys, frozensets, sorted cache payloads,
    inline-cache idiom checks); the dispatch surfaces discriminate with
    ``type(slot) is int``, which is ``False`` here, and route reads and
    writes through :meth:`read`/:meth:`store` so truncated tail storage
    is consulted on the shape (reads) or rematerialized (writes).
    (No ``__slots__``: variable-length builtins like ``int`` reject
    nonempty slot declarations.)
    """

    def __new__(cls, index: int, name: str) -> "ShapeField":
        self = super().__new__(cls, index)
        self.name = name
        return self

    def read(self, obj: Any) -> Any:
        f = obj.fields
        return f[self] if self < len(f) else obj.tib.shape.pinned[self]

    def store(self, vm: Any, obj: Any, value: Any) -> None:
        f = obj.fields
        if self >= len(f):
            # Writing a pinned slot: rematerialize the tail from the
            # current shape first, then overwrite.  The following state
            # hook re-evaluates the TIB and re-truncates if the object
            # lands in another hot state.
            shape = obj.tib.shape
            f.extend(shape.tail)
            vm.heap.pinned_bytes_restored += shape.tail_bytes
        f[self] = value


class UnboxedField:
    """A field unboxed out of the instance entirely.

    Installed as ``FieldInfo.slot`` for fields proven lifetime-constant
    across every constructor.  Reads return the proven constant; the
    constructor's own store of that same literal is dropped.
    """

    __slots__ = ("key", "name", "value")

    def __init__(self, declaring_class: str, name: str, value: Any) -> None:
        self.key = f"{declaring_class}.{name}"
        self.name = name
        self.value = value

    def read(self, obj: Any) -> Any:
        return self.value

    def store(self, vm: Any, obj: Any, value: Any) -> None:
        # Provably the same literal the shape already holds.
        pass

    def __repr__(self) -> str:
        return f"<unboxed {self.key}={self.value!r}>"
