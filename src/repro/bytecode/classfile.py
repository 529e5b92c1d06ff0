"""Class-file model: types, fields, methods, classes, and programs.

This is the unit of exchange between the Jx frontend (:mod:`repro.lang`),
the offline analyses (:mod:`repro.mutation`), and the JxVM runtime
(:mod:`repro.vm`).  It corresponds to a parsed-and-verified ``.class``
file set in a real JVM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.bytecode.instructions import Instr


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JxType:
    """A Jx static type.

    ``name`` is a primitive name (``int``, ``double``, ``boolean``,
    ``string``, ``void``), a class or interface name, or an array type
    with ``dims > 0``.
    """

    name: str
    dims: int = 0

    PRIMITIVES = frozenset({"int", "double", "boolean", "string", "void"})

    @property
    def is_array(self) -> bool:
        return self.dims > 0

    @property
    def is_primitive(self) -> bool:
        return self.dims == 0 and self.name in self.PRIMITIVES

    @property
    def is_reference(self) -> bool:
        return self.is_array or (not self.is_primitive)

    @property
    def is_numeric(self) -> bool:
        return self.dims == 0 and self.name in ("int", "double")

    def element_type(self) -> "JxType":
        """Return the element type of this array type."""
        if not self.is_array:
            raise ValueError(f"{self} is not an array type")
        return JxType(self.name, self.dims - 1)

    def array_of(self) -> "JxType":
        return JxType(self.name, self.dims + 1)

    def default_value(self) -> Any:
        """The zero value an uninitialized field/array slot holds."""
        if self.is_array or not self.is_primitive:
            return None
        return {
            "int": 0,
            "double": 0.0,
            "boolean": False,
            "string": None,
            "void": None,
        }[self.name]

    def __str__(self) -> str:
        return self.name + "[]" * self.dims


INT = JxType("int")
DOUBLE = JxType("double")
BOOLEAN = JxType("boolean")
STRING = JxType("string")
VOID = JxType("void")
NULL_T = JxType("<null>")


# ---------------------------------------------------------------------------
# Members
# ---------------------------------------------------------------------------

@dataclass
class FieldInfo:
    """A declared field.

    Attributes:
        access: ``"public"``, ``"private"``, or ``"default"``
            (package-private); the lifetime-constant analysis (paper §4)
            uses this to prove non-modifiability from other classes.
    """

    name: str
    type: JxType
    declaring_class: str
    is_static: bool = False
    access: str = "default"
    #: Slot index in the object field layout / static storage; linker-set.
    slot: int = -1

    @property
    def key(self) -> tuple[str, str]:
        """(declaring class, name) — the canonical field identity."""
        return (self.declaring_class, self.name)

    def copy(self) -> "FieldInfo":
        """Return an unlinked copy of this field (``slot`` reset)."""
        return FieldInfo(self.name, self.type, self.declaring_class,
                         self.is_static, self.access)

    def __str__(self) -> str:
        mods = ("static " if self.is_static else "") + self.access
        return f"{mods} {self.type} {self.declaring_class}.{self.name}"


CONSTRUCTOR_NAME = "<init>"
STATIC_INIT_NAME = "<clinit>"


@dataclass
class MethodInfo:
    """A declared method with its bytecode body.

    Jx does not allow method overloading (one method per name per class),
    but constructors may be overloaded by arity; the canonical method key
    is ``name`` for ordinary methods and ``("<init>", arity)`` for
    constructors.
    """

    name: str
    param_types: list[JxType]
    return_type: JxType
    declaring_class: str
    is_static: bool = False
    access: str = "public"
    code: list[Instr] = field(default_factory=list)
    max_locals: int = 0
    #: Declared parameter/local names, index-aligned with locals; debugging.
    local_names: list[str] = field(default_factory=list)
    #: Interface methods have no body.
    is_abstract: bool = False

    @property
    def is_constructor(self) -> bool:
        return self.name == CONSTRUCTOR_NAME

    @property
    def is_private(self) -> bool:
        return self.access == "private"

    @property
    def arity(self) -> int:
        """Number of declared parameters (excluding the receiver)."""
        return len(self.param_types)

    @property
    def key(self) -> str:
        """Lookup key within a class: plain name, or name/arity for ctors."""
        if self.is_constructor:
            return f"{CONSTRUCTOR_NAME}/{self.arity}"
        return self.name

    @property
    def qualified_name(self) -> str:
        return f"{self.declaring_class}.{self.key}"

    @property
    def num_args(self) -> int:
        """Total argument count including the receiver for instance methods."""
        return self.arity + (0 if self.is_static else 1)

    def bytecode_size(self) -> int:
        return len(self.code)

    def copy(self) -> "MethodInfo":
        """Return an unlinked copy of this method: every instruction is
        copied with :meth:`Instr.copy`."""
        return MethodInfo(
            self.name, list(self.param_types), self.return_type,
            self.declaring_class, self.is_static, self.access,
            [instr.copy() for instr in self.code], self.max_locals,
            list(self.local_names), self.is_abstract,
        )

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.param_types)
        return f"{self.return_type} {self.qualified_name}({params})"


@dataclass
class ClassInfo:
    """A declared class or interface."""

    name: str
    super_name: str | None = None
    interface_names: list[str] = field(default_factory=list)
    is_interface: bool = False
    fields: dict[str, FieldInfo] = field(default_factory=dict)
    #: Keyed by :attr:`MethodInfo.key`.
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    source_name: str = "<unknown>"

    def add_field(self, f: FieldInfo) -> None:
        if f.name in self.fields:
            raise ValueError(f"duplicate field {self.name}.{f.name}")
        self.fields[f.name] = f

    def add_method(self, m: MethodInfo) -> None:
        if m.key in self.methods:
            raise ValueError(f"duplicate method {self.name}.{m.key}")
        self.methods[m.key] = m

    def constructors(self) -> list[MethodInfo]:
        return [m for m in self.methods.values() if m.is_constructor]

    def instance_methods(self) -> list[MethodInfo]:
        return [
            m
            for m in self.methods.values()
            if not m.is_static and not m.is_constructor
        ]

    def static_methods(self) -> list[MethodInfo]:
        return [m for m in self.methods.values() if m.is_static]

    def copy(self) -> "ClassInfo":
        """Return an unlinked copy of this class; its fields and methods
        are copied too, since linking writes into them."""
        return ClassInfo(
            self.name, self.super_name, list(self.interface_names),
            self.is_interface,
            {name: f.copy() for name, f in self.fields.items()},
            {key: m.copy() for key, m in self.methods.items()},
            self.source_name,
        )

    def __str__(self) -> str:
        kind = "interface" if self.is_interface else "class"
        return f"{kind} {self.name}"


class ProgramUnit:
    """A linkable set of classes — the output of one frontend run.

    The unit also records, per class, which fields the offline analysis
    designated as state fields; this is attached by the mutation pipeline
    before the program is handed to the VM.
    """

    def __init__(self, classes: dict[str, ClassInfo] | None = None,
                 entry_class: str = "Main", entry_method: str = "main") -> None:
        self.classes: dict[str, ClassInfo] = dict(classes or {})
        self.entry_class = entry_class
        self.entry_method = entry_method
        #: Names of the classes that are unlinked copies of the
        #: process-wide stdlib compile (set by ``compile_source``).
        self.stdlib_names: frozenset[str] = frozenset()

    def add_class(self, cls: ClassInfo) -> None:
        if cls.name in self.classes:
            raise ValueError(f"duplicate class {cls.name}")
        self.classes[cls.name] = cls

    def get_class(self, name: str) -> ClassInfo:
        try:
            return self.classes[name]
        except KeyError:
            raise KeyError(f"unknown class {name!r}") from None

    def lookup_method(self, class_name: str, key: str) -> MethodInfo | None:
        """Resolve ``key`` against ``class_name`` walking up the hierarchy."""
        cls: ClassInfo | None = self.classes.get(class_name)
        while cls is not None:
            if key in cls.methods:
                return cls.methods[key]
            cls = self.classes.get(cls.super_name) if cls.super_name else None
        return None

    def lookup_field(self, class_name: str, field_name: str) -> FieldInfo | None:
        """Resolve a field name against a class, walking up the hierarchy."""
        cls: ClassInfo | None = self.classes.get(class_name)
        while cls is not None:
            if field_name in cls.fields:
                return cls.fields[field_name]
            cls = self.classes.get(cls.super_name) if cls.super_name else None
        return None

    def supertypes(self, class_name: str) -> Iterator[str]:
        """Yield ``class_name`` and all its superclasses, bottom-up."""
        cls = self.classes.get(class_name)
        while cls is not None:
            yield cls.name
            cls = self.classes.get(cls.super_name) if cls.super_name else None

    def is_subtype(self, sub: str, sup: str) -> bool:
        """True if ``sub`` is ``sup`` or extends/implements it transitively."""
        if sub == sup:
            return True
        seen: set[str] = set()
        work = [sub]
        while work:
            name = work.pop()
            if name in seen:
                continue
            seen.add(name)
            if name == sup:
                return True
            cls = self.classes.get(name)
            if cls is None:
                continue
            if cls.super_name:
                work.append(cls.super_name)
            work.extend(cls.interface_names)
        return False

    def subclasses_of(self, class_name: str) -> list[str]:
        """Direct and transitive subclasses of ``class_name`` (excl. itself)."""
        out = []
        for name in self.classes:
            if name != class_name and self.is_subtype(name, class_name):
                if not self.classes[name].is_interface:
                    out.append(name)
        return sorted(out)

    def all_methods(self) -> Iterator[MethodInfo]:
        for cls in self.classes.values():
            yield from cls.methods.values()

    def class_count(self) -> int:
        return len(self.classes)

    def method_count(self) -> int:
        return sum(len(c.methods) for c in self.classes.values())

    def __repr__(self) -> str:
        return (
            f"ProgramUnit({self.class_count()} classes, "
            f"{self.method_count()} methods, entry={self.entry_class}."
            f"{self.entry_method})"
        )
