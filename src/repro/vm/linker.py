"""Class loading and linking.

Turns a verified :class:`~repro.bytecode.classfile.ProgramUnit` into
runtime structures:

* :class:`RuntimeClass` — field layout, vtable layout, class TIB, IMT;
* :class:`RuntimeMethod` — one per declared method, holding the current
  general compiled method, per-hot-state special compiled methods, and
  the shared sampling record;
* symbolic instruction operands resolved to slots/offsets/cells so the
  interpreter never re-resolves names (the constant-pool-resolution
  analog).

Linked state lives inside the instructions, so one ProgramUnit belongs
to exactly one VM.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.bytecode.classfile import (
    ClassInfo,
    FieldInfo,
    JxType,
    MethodInfo,
    ProgramUnit,
    STATIC_INIT_NAME,
)
from repro.bytecode.opcodes import Op
from repro.vm.compiled import BaselineCompiled, CompiledMethod, MethodSamples
from repro.vm.imt import IMT, DirectEntry, imt_slot_for
from repro.vm.intrinsics import INTRINSICS
from repro.vm.jtoc import JTOC, JTOCMethodCell
from repro.vm.tib import TIB, TIBSpaceTracker
from repro.vm.values import VMObject


# Opcode members bound once (an ``Op.X`` read costs several module-global
# reads), since linking checks every instruction of the program.
_GETFIELD = Op.GETFIELD
_PUTFIELD = Op.PUTFIELD
_GETSTATIC = Op.GETSTATIC
_PUTSTATIC = Op.PUTSTATIC
_INVOKEVIRTUAL = Op.INVOKEVIRTUAL
_INVOKESPECIAL = Op.INVOKESPECIAL
_INVOKESTATIC = Op.INVOKESTATIC
_INVOKEINTERFACE = Op.INVOKEINTERFACE
_NEW = Op.NEW
_NEWARRAY = Op.NEWARRAY
_INSTANCEOF = Op.INSTANCEOF
_CHECKCAST = Op.CHECKCAST
_INTRINSIC = Op.INTRINSIC


class LinkError(Exception):
    """Raised when a program cannot be linked."""


class RuntimeMethod:
    """Runtime record for one declared method."""

    __slots__ = (
        "info",
        "rclass",
        "samples",
        "compiled",
        "general",
        "specials",
        "vtable_offset",
        "jtoc_cell",
        "ctor_exit_hook",
        "is_mutable",
        "num_state_fields",
        "compile_history",
        "quick_code",
        "quick_pad",
        "quick_tried",
        "osr_entries",
    )

    def __init__(self, info: MethodInfo, rclass: "RuntimeClass") -> None:
        self.info = info
        self.rclass = rclass
        self.samples = MethodSamples()
        self.compiled: CompiledMethod = BaselineCompiled(self)
        #: The current *general* compiled method.  ``compiled`` is the
        #: pointer invokespecial dispatches through; for private methods
        #: of static-only mutable classes the manager may swap it to a
        #: specialized version (paper §3.2.3), while ``general`` always
        #: tracks the unspecialized code.
        self.general: CompiledMethod = self.compiled
        self.num_state_fields = 0
        #: hot-state key -> special CompiledMethod (paper §3.2.2).
        self.specials: dict[Any, CompiledMethod] = {}
        self.vtable_offset = -1
        self.jtoc_cell: JTOCMethodCell | None = None
        #: Mutation-manager callback run when a constructor returns.
        self.ctor_exit_hook: Any = None
        self.is_mutable = False
        #: (opt_level, wall seconds) per recompilation, for Fig. 11.
        self.compile_history: list[tuple[int, float]] = []
        #: Quickened body (:mod:`repro.bytecode.quicken`): a runtime-only
        #: shadow of ``info.code`` with inline-cache call sites and fused
        #: superinstructions; ``None`` when quickening is off, before the
        #: method's first interpreted call, or when TV refused it — the
        #: interpreter then runs ``info.code``.
        self.quick_code: list | None = None
        #: ``[None] * (max_locals - num_args)``, so the interpreter's
        #: frame prologue builds a call's locals with one concat.
        self.quick_pad = [None] * (info.max_locals - info.num_args)
        #: Whether the quickener has built (and validated) this body
        #: already; a refused body is never rebuilt.
        self.quick_tried = False
        #: OSR entry-point cache (:mod:`repro.vm.osr`): back-edge pc ->
        #: continuation callable, or ``False`` for pcs proven
        #: ineligible; ``None`` until the first OSR attempt.
        self.osr_entries: dict[int, Any] | None = None

    @property
    def qualified_name(self) -> str:
        return self.info.qualified_name

    def __repr__(self) -> str:
        return f"<RuntimeMethod {self.qualified_name}>"


class RuntimeClass:
    """Runtime record for one class or interface."""

    def __init__(self, info: ClassInfo) -> None:
        self.info = info
        self.name = info.name
        self.super_rc: RuntimeClass | None = None
        self.is_interface = info.is_interface
        #: All supertype names (self + classes + interfaces, transitive).
        self.all_supertypes: frozenset[str] = frozenset()
        #: Instance field name -> slot.
        self.field_layout: dict[str, int] = {}
        self.num_fields = 0
        self.field_defaults: list[Any] = []
        #: Method key -> vtable offset (public/default instance methods).
        self.vtable_layout: dict[str, int] = {}
        #: RuntimeMethod currently occupying each vtable offset.
        self.vtable_rms: list[RuntimeMethod] = []
        self.class_tib: TIB | None = None
        #: hot-state key -> special TIB (mutation-manager managed).
        self.special_tibs: dict[Any, TIB] = {}
        self.imt: IMT | None = None
        self.imt_slot_of: dict[str, int] = {}
        #: All methods declared by this class, keyed by method key.
        self.own_methods: dict[str, RuntimeMethod] = {}
        self.initialized = False
        #: Set by the mutation manager when this class is mutable.
        self.mutable_info: Any = None
        #: Heap accounting (repro.vm.shapes): modeled bytes of one
        #: instance and its declared-field baseline.  ``None`` until
        #: ``install_shapes`` runs.
        self.alloc_bytes: int | None = None
        self.declared_bytes: int | None = None

    def allocate(self, vm: Any) -> VMObject:
        """Allocate an instance with default-initialized fields."""
        obj = VMObject(self.class_tib, self.num_fields)
        obj.fields[:] = self.field_defaults
        vm.heap.record_object(
            self.name, self.alloc_bytes, self.declared_bytes
        )
        return obj

    def is_subtype_of(self, name: str) -> bool:
        return name in self.all_supertypes

    def __repr__(self) -> str:
        kind = "interface" if self.is_interface else "class"
        return f"<RuntimeClass {kind} {self.name}>"


class Linker:
    """Builds all runtime structures for one program."""

    def __init__(self, unit: ProgramUnit) -> None:
        self.unit = unit
        self.jtoc = JTOC()
        self.classes: dict[str, RuntimeClass] = {}
        self.tib_space = TIBSpaceTracker()

    # ------------------------------------------------------------------

    def link(self) -> None:
        for cls in self._topo_order():
            self._link_class(cls)
        for rc in self.classes.values():
            self._resolve_code(rc)

    def _topo_order(self) -> Iterator[ClassInfo]:
        """Classes with supers before subclasses (interfaces first)."""
        emitted: set[str] = set()

        def emit(cls: ClassInfo) -> Iterator[ClassInfo]:
            if cls.name in emitted:
                return
            if cls.super_name:
                sup = self.unit.classes.get(cls.super_name)
                if sup is None:
                    raise LinkError(
                        f"{cls.name}: unknown superclass {cls.super_name}"
                    )
                yield from emit(sup)
            for iname in cls.interface_names:
                iface = self.unit.classes.get(iname)
                if iface is None:
                    raise LinkError(
                        f"{cls.name}: unknown interface {iname}"
                    )
                yield from emit(iface)
            if cls.name not in emitted:
                emitted.add(cls.name)
                yield cls

        for cls in self.unit.classes.values():
            yield from emit(cls)

    # ------------------------------------------------------------------

    def _link_class(self, info: ClassInfo) -> None:
        rc = RuntimeClass(info)
        self.classes[info.name] = rc
        supertypes = {info.name}
        if info.super_name:
            rc.super_rc = self.classes[info.super_name]
            supertypes |= rc.super_rc.all_supertypes
        for iname in info.interface_names:
            supertypes |= self.classes[iname].all_supertypes
        rc.all_supertypes = frozenset(supertypes)

        if info.is_interface:
            return

        # -- field layout --------------------------------------------------
        if rc.super_rc is not None:
            rc.field_layout = dict(rc.super_rc.field_layout)
            rc.field_defaults = list(rc.super_rc.field_defaults)
        rc.num_fields = len(rc.field_layout)
        for finfo in info.fields.values():
            if finfo.is_static:
                finfo.slot = self.jtoc.add_field(
                    info.name, finfo.name, finfo.type.default_value()
                )
                continue
            if finfo.name in rc.field_layout:
                raise LinkError(
                    f"{info.name}.{finfo.name} shadows an inherited field"
                )
            finfo.slot = rc.num_fields
            rc.field_layout[finfo.name] = finfo.slot
            rc.field_defaults.append(finfo.type.default_value())
            rc.num_fields += 1

        # -- runtime methods -----------------------------------------------
        for key, minfo in info.methods.items():
            rm = RuntimeMethod(minfo, rc)
            rc.own_methods[key] = rm
            if minfo.is_static:
                rm.jtoc_cell = self.jtoc.add_method(
                    info.name, key, rm.compiled
                )

        # -- vtable ----------------------------------------------------------
        if rc.super_rc is not None:
            rc.vtable_layout = dict(rc.super_rc.vtable_layout)
            rc.vtable_rms = list(rc.super_rc.vtable_rms)
        for key, minfo in info.methods.items():
            if minfo.is_static or minfo.is_constructor or minfo.is_private:
                continue
            rm = rc.own_methods[key]
            if key in rc.vtable_layout:
                offset = rc.vtable_layout[key]
                rc.vtable_rms[offset] = rm
            else:
                offset = len(rc.vtable_rms)
                rc.vtable_layout[key] = offset
                rc.vtable_rms.append(rm)
            rm.vtable_offset = offset

        # Inherited methods keep their superclass offset on their own rm.
        for offset, rm in enumerate(rc.vtable_rms):
            if rm.vtable_offset < 0:
                rm.vtable_offset = offset

        # -- TIB and IMT --------------------------------------------------------
        rc.class_tib = TIB(
            type_info=rc,
            entries=[rm.compiled for rm in rc.vtable_rms],
        )
        rc.imt = IMT()
        iface_keys = self._interface_method_keys(info)
        entries: dict[str, DirectEntry] = {}
        for key in iface_keys:
            offset = rc.vtable_layout.get(key)
            if offset is None:
                raise LinkError(
                    f"{info.name} lacks interface method {key!r}"
                )
            entries[key] = DirectEntry(rc.vtable_rms[offset].compiled)
        rc.imt_slot_of = rc.imt.install_all(entries)
        rc.class_tib.imt = rc.imt
        self.tib_space.record_class_tib(rc.class_tib)

    def _interface_method_keys(self, info: ClassInfo) -> set[str]:
        """All interface-method keys this class must answer to."""
        keys: set[str] = set()
        cur: ClassInfo | None = info
        while cur is not None:
            work = list(cur.interface_names)
            seen: set[str] = set()
            while work:
                iname = work.pop()
                if iname in seen:
                    continue
                seen.add(iname)
                iface = self.unit.classes[iname]
                keys.update(iface.methods.keys())
                work.extend(iface.interface_names)
            cur = (
                self.unit.classes.get(cur.super_name)
                if cur.super_name
                else None
            )
        return keys

    # ------------------------------------------------------------------

    def _resolve_code(self, rc: RuntimeClass) -> None:
        for rm in rc.own_methods.values():
            if rm.info.is_abstract:
                continue
            for instr in rm.info.code:
                self._resolve_instr(instr, rm)

    def _resolve_instr(self, instr, rm: RuntimeMethod) -> None:
        op = instr.op
        if op is _GETFIELD or op is _PUTFIELD:
            cls_name, field_name = instr.arg
            finfo = self.unit.lookup_field(cls_name, field_name)
            if finfo is None or finfo.is_static:
                raise LinkError(
                    f"{rm.qualified_name}: unresolved instance field "
                    f"{cls_name}.{field_name}"
                )
            instr.resolved = finfo.slot
        elif op is _GETSTATIC or op is _PUTSTATIC:
            cls_name, field_name = instr.arg
            finfo = self.unit.lookup_field(cls_name, field_name)
            if finfo is None or not finfo.is_static:
                raise LinkError(
                    f"{rm.qualified_name}: unresolved static field "
                    f"{cls_name}.{field_name}"
                )
            instr.resolved = finfo.slot
        elif op is _INVOKEVIRTUAL:
            cls_name, key, _ = instr.arg
            target_rc = self.classes[cls_name]
            offset = target_rc.vtable_layout.get(key)
            if offset is None:
                raise LinkError(
                    f"{rm.qualified_name}: no virtual method "
                    f"{cls_name}.{key}"
                )
            returns = self._returns(target_rc.vtable_rms[offset])
            instr.resolved = (offset, returns)
        elif op is _INVOKESPECIAL:
            cls_name, key, _ = instr.arg
            target_rm = self._find_declared(cls_name, key)
            if target_rm is None:
                raise LinkError(
                    f"{rm.qualified_name}: no special-invokable method "
                    f"{cls_name}.{key}"
                )
            instr.resolved = (target_rm, self._returns(target_rm))
        elif op is _INVOKESTATIC:
            cls_name, key, _ = instr.arg
            target_rm = self._find_declared(cls_name, key)
            if target_rm is None or target_rm.jtoc_cell is None:
                raise LinkError(
                    f"{rm.qualified_name}: no static method {cls_name}.{key}"
                )
            instr.resolved = (target_rm.jtoc_cell, self._returns(target_rm))
        elif op is _INVOKEINTERFACE:
            iface_name, key, _ = instr.arg
            target = self.unit.lookup_method(iface_name, key)
            if target is None:
                target = self._iface_lookup(iface_name, key)
            if target is None:
                raise LinkError(
                    f"{rm.qualified_name}: no interface method "
                    f"{iface_name}.{key}"
                )
            returns = target.return_type.name != "void"
            instr.resolved = (imt_slot_for(key), key, returns)
        elif op is _NEW:
            instr.resolved = self.classes[instr.arg]
        elif op is _NEWARRAY:
            type_str = instr.arg
            dims = 0
            base = type_str
            while base.endswith("[]"):
                base = base[:-2]
                dims += 1
            instr.resolved = JxType(base, dims).default_value()
        elif op is _INSTANCEOF or op is _CHECKCAST:
            instr.resolved = self.classes[instr.arg]
        elif op is _INTRINSIC:
            name, _ = instr.arg
            instr.resolved = INTRINSICS[name]

    @staticmethod
    def _returns(target_rm: RuntimeMethod) -> bool:
        return target_rm.info.return_type.name != "void"

    def _iface_lookup(self, iface_name: str, key: str) -> MethodInfo | None:
        iface = self.unit.classes.get(iface_name)
        if iface is None:
            return None
        if key in iface.methods:
            return iface.methods[key]
        for sup in iface.interface_names:
            found = self._iface_lookup(sup, key)
            if found is not None:
                return found
        return None

    def _find_declared(self, cls_name: str, key: str) -> RuntimeMethod | None:
        """Find ``key`` declared in ``cls_name`` or the nearest superclass."""
        rc: RuntimeClass | None = self.classes.get(cls_name)
        while rc is not None:
            if key in rc.own_methods:
                return rc.own_methods[key]
            rc = rc.super_rc
        return None


def static_initializers(classes: dict[str, RuntimeClass]) -> list[RuntimeMethod]:
    """All <clinit> methods in deterministic (linked) class order."""
    out = []
    for rc in classes.values():
        rm = rc.own_methods.get(STATIC_INIT_NAME)
        if rm is not None:
            out.append(rm)
    return out
