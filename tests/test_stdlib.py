"""Self-hosted stdlib tests (also a standing compiler integration test),
and the once-per-process stdlib every ``compile_source`` copies."""

import sys
import threading

import repro.lang
from repro import VM
from repro.cache.keys import program_digest
from repro.lang import compile_source, compile_stdlib, stdlib_class_names
from repro.mutation import build_mutation_plan
from repro.workloads import get_workload
from tests.helpers import assert_all_tiers_agree, run_source, wrap_main


def out(body):
    return run_source(wrap_main(body))


def test_stringbuilder_growth_and_join():
    body = """
    StringBuilder sb = new StringBuilder();
    for (int i = 0; i < 40; i++) { sb.appendInt(i); sb.append(","); }
    string s = sb.toString();
    Sys.print(Sys.len(s) + " " + Sys.startsWith(s, "0,1,2,"));
    """
    assert out(body) == "110 true\n"


def test_stringbuilder_clear_and_isempty():
    body = """
    StringBuilder sb = new StringBuilder();
    Sys.print("" + sb.isEmpty());
    sb.append("xy");
    Sys.print(sb.length() + " " + sb.isEmpty());
    sb.clear();
    Sys.print(sb.toString() + "|" + sb.length());
    """
    assert out(body) == "true\n2 false\n|0\n"


def test_vector_add_get_remove():
    prelude = "class Box { int v; Box(int x) { v = x; } }"
    body = """
    Vector vec = new Vector();
    for (int i = 0; i < 20; i++) { vec.add(new Box(i)); }
    Box last = (Box) vec.removeLast();
    Box mid = (Box) vec.get(10);
    Sys.print(vec.size() + " " + last.v + " " + mid.v);
    vec.clear();
    Sys.print("" + vec.isEmpty());
    """
    assert run_source(wrap_main(body, prelude)) == "19 19 10\ntrue\n"


def test_intvector_and_doublevector():
    body = """
    IntVector iv = new IntVector();
    DoubleVector dv = new DoubleVector();
    for (int i = 1; i <= 100; i++) { iv.push(i); dv.push(i * 0.5); }
    Sys.print(iv.sum() + " " + dv.sum() + " " + iv.get(9));
    """
    assert out(body) == "5050 2525.0 10\n"


def test_strmap_put_get_overwrite_rehash():
    prelude = "class Val { int v; Val(int x) { v = x; } }"
    body = """
    StrMap m = new StrMap();
    for (int i = 0; i < 100; i++) { m.put("k" + i, new Val(i)); }
    m.put("k5", new Val(555));
    Val v5 = (Val) m.get("k5");
    Val v99 = (Val) m.get("k99");
    Sys.print(m.size() + " " + v5.v + " " + v99.v + " "
        + m.containsKey("k42") + " " + m.containsKey("nope") + " "
        + (m.get("nope") == null));
    """
    assert run_source(wrap_main(body, prelude)) \
        == "100 555 99 true false true\n"


def test_sys_string_functions():
    body = """
    string s = "  Hello, World  ";
    Sys.print(Sys.trim(s) + "|");
    Sys.print(Sys.upper("ab") + Sys.lower("CD"));
    Sys.print("" + Sys.indexOf("abcabc", "ca") + Sys.contains("abc", "b"));
    Sys.print(Sys.replace("a-b-c", "-", "+"));
    Sys.print(Sys.substr("abcdef", 2, 5));
    Sys.print("" + Sys.ordAt("A", 0) + Sys.chr(66));
    Sys.print(Sys.repeat("ab", 3));
    string[] parts = Sys.split("a,b,,c", ",");
    Sys.print(parts.length + " " + parts[2] + "|");
    """
    assert out(body) == (
        "Hello, World|\nABcd\n2true\na+b+c\ncde\n65B\nababab\n4 |\n"
    )


def test_sys_parse_and_format():
    body = """
    Sys.print("" + (Sys.parseInt(" 42 ") + 1));
    Sys.print("" + (Sys.parseDouble("2.5") * 2.0));
    Sys.print(Sys.itos(7) + Sys.dtos(1.5));
    """
    assert out(body) == "43\n5.0\n71.5\n"


def test_sys_math_functions():
    body = """
    Sys.print("" + Sys.sqrt(16.0) + " " + Sys.pow(2.0, 10.0));
    Sys.print("" + Sys.floorToInt(3.7) + " " + Sys.ceilToInt(3.2)
        + " " + Sys.round(2.5));
    Sys.print("" + Sys.iabs(0-5) + " " + Sys.imin(3, 7) + " "
        + Sys.imax(3, 7));
    Sys.print("" + Sys.abs(0.0-2.5) + " " + Sys.dmin(1.5, 2.5));
    """
    assert out(body) == "4.0 1024.0\n3 4 3\n5 3 7\n2.5 1.5\n"


def test_string_hash_matches_java():
    # Java's "abc".hashCode() == 96354.
    assert out('Sys.print("" + Sys.strHash("abc"));') == "96354\n"


def test_stdlib_under_all_tiers():
    assert_all_tiers_agree(
        wrap_main(
            """
            StrMap m = new StrMap();
            StringBuilder sb = new StringBuilder();
            for (int i = 0; i < 150; i++) {
                m.put("key" + (i % 40), null);
                sb.appendInt(m.size());
            }
            Sys.print(m.size() + " " + Sys.len(sb.toString()));
            """
        )
    )


# ---------------------------------------------------------------------------
# The stdlib is compiled once per process; each unit links its own copy.
# ---------------------------------------------------------------------------

_PROGRAM = wrap_main(
    "Vector v = new Vector(); v.add(new Box(3)); "
    "Sys.print(((Box) v.get(0)).n + \" \" + v.size());",
    prelude="class Box { int n; Box(int x) { n = x; } }",
)


def _classfile_objects(classes):
    """ids of every ClassInfo, FieldInfo, MethodInfo and Instr reachable
    from ``classes``."""
    ids = set()
    for cls in classes:
        ids.add(id(cls))
        ids.update(id(f) for f in cls.fields.values())
        for m in cls.methods.values():
            ids.add(id(m))
            ids.update(id(instr) for instr in m.code)
    return ids


def _clear_memo(monkeypatch):
    monkeypatch.setattr(repro.lang, "_PRISTINE_STDLIB", None)


def test_two_units_share_no_classfile_object():
    a = compile_source(_PROGRAM)
    b = compile_source(_PROGRAM)
    assert _classfile_objects(a.classes.values()).isdisjoint(
        _classfile_objects(b.classes.values()))
    assert _classfile_objects(a.classes.values()).isdisjoint(
        _classfile_objects(repro.lang._pristine_stdlib()))


def test_linking_leaves_the_pristine_stdlib_unlinked(monkeypatch):
    spec = get_workload("salarydb")
    plan = build_mutation_plan(spec.profile_source(),
                               entry_class=spec.entry_class,
                               entry_method=spec.entry_method)
    vm = VM(compile_source(spec.source(0.05), entry_class=spec.entry_class,
                           entry_method=spec.entry_method),
            mutation_plan=plan, seed=42)
    assert vm.run().output
    assert vm.mutation_stats.tib_swaps > 0
    pristine = repro.lang._pristine_stdlib()
    linked = {cls.name: vm.unit.classes[cls.name] for cls in pristine}
    assert any(instr.resolved is not None
               for cls in linked.values() for m in cls.methods.values()
               for instr in m.code)

    for cls in pristine:
        assert all(f.slot == -1 for f in cls.fields.values()), cls.name
        for m in cls.methods.values():
            for instr in m.code:
                assert instr.resolved is None, (m.qualified_name, instr)
                assert instr.state_hook is None, (m.qualified_name, instr)
    # A copy of a linked class is unlinked, and equal to the pristine one.
    assert [linked[cls.name].copy() for cls in pristine] == pristine

    _clear_memo(monkeypatch)
    assert repro.lang._pristine_stdlib() == pristine


def test_threads_racing_on_an_empty_memo_get_disjoint_units(monkeypatch):
    _clear_memo(monkeypatch)
    compiles = []
    build = repro.lang.build_prebuilt_classes

    def counting_build():
        compiles.append(threading.get_ident())
        return build()

    monkeypatch.setattr(repro.lang, "build_prebuilt_classes", counting_build)
    start = threading.Barrier(4)
    units, errors = [None] * 4, []

    def compile_one(i):
        try:
            start.wait()
            units[i] = compile_source(_PROGRAM)
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=compile_one, args=(i,))
               for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(compiles) == 1
    objects = [_classfile_objects(u.classes.values()) for u in units]
    for i in range(4):
        repro.lang.verify_program_with_intrinsics(units[i])
        assert VM(units[i], seed=42).run().output == "3 1\n"
        for j in range(i):
            assert objects[i].isdisjoint(objects[j])


def test_program_digest_does_not_depend_on_the_memo(monkeypatch):
    memoized = compile_source(_PROGRAM)
    _clear_memo(monkeypatch)
    fresh = compile_source(_PROGRAM)
    assert program_digest(memoized) == program_digest(fresh)


def test_stdlib_class_names_match_compile_stdlib():
    names = stdlib_class_names()
    assert names == {cls.name for cls in compile_stdlib()}
    assert {"Object", "Sys", "StringBuilder", "Vector"} <= names
