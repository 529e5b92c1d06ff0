"""Backend-specific tests: pycodegen shapes at opt1 and opt2, opt1
back-edge ticks, interface dispatch through conflict stubs end-to-end."""

import pytest

from repro import AdaptiveConfig, VM, compile_source
from repro.opt.lowering import lower_method
from repro.opt.pipeline import OptCompiler
from repro.vm.imt import ConflictStub, imt_slot_for
from repro.vm.interpreter import JxStackTrace
from repro.vm.linker import Linker
from tests.helpers import (
    AGGRESSIVE,
    INTERP_ONLY,
    assert_all_tiers_agree,
    run_vm,
)

ARITH = """
class M {
    static int mix(int a, int b) {
        int x = a * 3 - b / 2 + a % 7;
        if (x > 100) { x = x - (a << 1); }
        else { x = x + (b >> 1); }
        return x ^ (a & b) | 1;
    }
}
class Main { static void main() { } }
"""

SUM = """
class M {
    static int sum(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) { acc += i % 7; }
        return acc;
    }
}
class Main { static void main() { } }
"""


def _method(source, cls, key, adaptive=INTERP_ONLY):
    vm = VM(compile_source(source), adaptive_config=adaptive)
    vm.initialize()
    return vm, vm.lookup(cls, key)


def test_arith_agrees_at_opt0_opt1_and_opt2():
    vm, rm = _method(ARITH, "M", "mix")
    compiler = OptCompiler(vm)
    opt1 = compiler.compile(rm, 1)
    opt2 = compiler.compile(rm, 2)
    for a, b in [(0, 1), (5, 3), (-7, 2), (100, -41), (9999, 7)]:
        expected = rm.compiled.invoke(vm, [a, b])
        assert rm.compiled.opt_level == 0
        assert opt1.executor(vm, [a, b]) == expected, (a, b)
        assert opt2.executor(vm, [a, b]) == expected, (a, b)


def test_opt1_is_generated_python():
    vm, rm = _method(SUM, "M", "sum")
    cm = OptCompiler(vm).compile(rm, 1)
    assert cm.opt_level == 1
    assert cm.source_text
    assert cm.executor.__code__.co_filename.startswith("<jx-opt1:")
    assert cm.ir is None
    # opt1 keeps its IR-instruction code-size model (Fig. 10).
    fn = lower_method(rm.info)
    assert cm.code_size_bytes % 16 == 0
    assert 0 < cm.code_size_bytes <= fn.instr_count() * 16
    assert cm.executor(vm, [100]) == sum(i % 7 for i in range(100))


def test_opt1_back_edge_ticks_promote_a_single_invocation():
    """One opt1 call with a long loop crosses ``opt2_ticks`` on its own
    back-edge ticks; the promotion lands mid-call and the next call
    runs opt2 code."""
    vm, rm = _method(
        SUM, "M", "sum", AdaptiveConfig(opt1_ticks=16, opt2_ticks=1000)
    )
    vm.adaptive.on_hot(rm)
    assert rm.compiled.opt_level == 1
    assert rm.samples.ticks < 1000
    assert rm.compiled.invoke(vm, [5000]) == sum(i % 7 for i in range(5000))
    assert rm.samples.invocations == 1
    assert rm.samples.ticks >= 1000
    assert rm.compiled.opt_level == 2
    assert rm.compiled.invoke(vm, [10]) == sum(i % 7 for i in range(10))


def test_opt1_exception_gets_one_opt1_frame():
    source = """
    class M {
        static int at(int[] a, int i) { return a[i]; }
    }
    class Main {
        static void main() {
            int[] a = new int[4];
            int acc = 0;
            for (int r = 0; r < 200; r++) { acc += M.at(a, r % 4); }
            acc += M.at(a, 9);
        }
    }
    """
    vm = VM(compile_source(source),
            adaptive_config=AdaptiveConfig(opt1_ticks=16, opt2_ticks=1 << 40))
    with pytest.raises(JxStackTrace) as err:
        vm.run()
    assert vm.lookup("M", "at").compiled.opt_level == 1
    opt1_frames = [f for f in err.value.frames if "(opt1)" in f]
    assert opt1_frames == ["M.at (opt1)"]


def test_single_block_function_is_straight_line():
    source = """
    class M { static int f(int x) { return x * 2 + 1; } }
    class Main { static void main() { } }
    """
    unit = compile_source(source)
    vm = VM(unit, adaptive_config=AGGRESSIVE)
    vm.initialize()
    rm = vm.lookup("M", "f")
    cm = OptCompiler(vm).compile(rm, 2)
    assert "while True" not in cm.source_text
    assert cm.executor(vm, [21]) == 43


def test_multi_block_function_uses_loop_dispatch():
    source = """
    class M {
        static int f(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) { acc += i; }
            return acc;
        }
    }
    class Main { static void main() { } }
    """
    unit = compile_source(source)
    vm = VM(unit, adaptive_config=AGGRESSIVE)
    vm.initialize()
    rm = vm.lookup("M", "f")
    cm = OptCompiler(vm).compile(rm, 2)
    assert "while True" in cm.source_text
    assert cm.executor(vm, [100]) == 4950


def test_long_else_if_chain_runs_at_opt1_and_opt2():
    """Each else-arm that is a lone ``if`` becomes an ``elif``, so a
    150-arm chain stays flat instead of nesting past Python's
    indentation limit."""
    arms = "\n".join(
        f"else if (x == {i}) {{ r = {3 * i}; }}" for i in range(1, 150)
    )
    source = f"""
    class M {{
        static int f(int x) {{
            int r = 0;
            if (x == 0) {{ r = 7; }}
            {arms}
            else {{ r = -1; }}
            return r;
        }}
    }}
    class Main {{ static void main() {{ }} }}
    """
    vm, rm = _method(source, "M", "f")
    compiler = OptCompiler(vm)
    for level in (1, 2):
        cm = compiler.compile(rm, level)
        assert cm.source_text.count("elif ") == 149
        for x in (-1, 0, 1, 75, 149, 150):
            expected = 7 if x == 0 else 3 * x if 0 < x < 150 else -1
            assert cm.executor(vm, [x]) == expected


def test_generated_code_handles_negative_index_check():
    source = """
    class M {
        static int f(int[] a, int i) { return a[i]; }
    }
    class Main {
        static void main() {
            int[] a = new int[3];
            a[1] = 7;
            int acc = 0;
            for (int r = 0; r < 600; r++) { acc += M.f(a, 1); }
            Sys.print("" + acc);
        }
    }
    """
    vm = run_vm(source, AGGRESSIVE)
    assert vm.output == str(600 * 7) + "\n"
    rm = vm.lookup("M", "f")
    assert rm.compiled.opt_level == 2
    from repro.vm.values import ArrayBoundsError, VMArray

    arr = VMArray("int", 3, 0)
    with pytest.raises((ArrayBoundsError, JxStackTrace)):
        rm.compiled.invoke(vm, [arr, -1])
    with pytest.raises((ArrayBoundsError, JxStackTrace)):
        rm.compiled.invoke(vm, [arr, 3])


def _colliding_interface_names(count=2):
    """Find interface method names that hash to the same IMT slot."""
    buckets = {}
    i = 0
    while True:
        name = f"op{i}"
        slot = imt_slot_for(name)
        buckets.setdefault(slot, []).append(name)
        if len(buckets[slot]) >= count:
            return buckets[slot][:count]
        i += 1


def test_interface_conflict_stub_dispatch_end_to_end():
    m1, m2 = _colliding_interface_names()
    source = f"""
    interface Both {{
        int {m1}(int x);
        int {m2}(int x);
    }}
    class Impl implements Both {{
        public int {m1}(int x) {{ return x + 1; }}
        public int {m2}(int x) {{ return x * 2; }}
    }}
    class Main {{
        static void main() {{
            Both b = new Impl();
            int acc = 0;
            for (int i = 0; i < 500; i++) {{
                acc = (b.{m1}(acc) + b.{m2}(i)) % 9973;
            }}
            Sys.print("" + acc);
        }}
    }}
    """
    unit = compile_source(source)
    linker = Linker(unit)
    linker.link()
    rc = linker.classes["Impl"]
    slot = imt_slot_for(m1)
    assert slot == imt_slot_for(m2)
    assert isinstance(rc.imt.slots[slot], ConflictStub)
    # And the program agrees across all execution tiers.
    assert_all_tiers_agree(source)


def test_string_constants_with_quotes_roundtrip_codegen():
    source = r"""
    class Main {
        static string decorate(string s) {
            return "<q attr=\"v\">" + s + "</q>";
        }
        static void main() {
            string acc = "";
            for (int i = 0; i < 400; i++) {
                acc = decorate("x" + (i % 10));
            }
            Sys.print(acc);
        }
    }
    """
    vm = run_vm(source, AGGRESSIVE)
    assert vm.output == '<q attr="v">x9</q>\n'
    assert vm.lookup("Main", "decorate").compiled.opt_level == 2


def test_hookcall_codegen_runs_inlined_hook():
    """An inlined hooked constructor must still re-evaluate the TIB."""
    from repro.mutation import build_mutation_plan

    source = """
    class Item {
        private int kind;
        Item(int k) { kind = k; }
        public int price() {
            if (kind == 0) { return 10; }
            return 20;
        }
    }
    class Main {
        static void main() {
            int acc = 0;
            for (int i = 0; i < 900; i++) {
                Item it = new Item(i % 2);
                acc += it.price();
            }
            Sys.print("" + acc);
        }
    }
    """
    plan = build_mutation_plan(source)
    assert "Item" in plan.classes
    unit = compile_source(source)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    result = vm.run()
    assert result.output == str(450 * 10 + 450 * 20) + "\n"
    # Allocation-heavy loop: the hook ran per construction (TIB swaps).
    assert vm.mutation_stats.tib_swaps > 100
    main_cm = vm.lookup("Main", "main").compiled
    if main_cm.opt_level == 2 and "allocate" in main_cm.source_text:
        # The ctor inlined into main: the hook body must appear inline.
        assert ".tib.type_info is" in main_cm.source_text


def test_generated_code_does_not_depend_on_earlier_vms(monkeypatch):
    """Temps are numbered per lowered function, so a second VM in the
    same process generates exactly the first one's source."""
    from repro.mutation import build_mutation_plan
    from repro.opt.pycodegen import PyCodegen
    from repro.workloads import get_workload

    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    sources: list[list[str]] = []
    real = PyCodegen.generate

    def generate(self):
        source, executor = real(self)
        sources[-1].append(source)
        return source, executor

    monkeypatch.setattr(PyCodegen, "generate", generate)
    spec = get_workload("simlogic")
    source = spec.source(0.02)
    plan = build_mutation_plan(source, entry_class=spec.entry_class,
                               entry_method=spec.entry_method)
    code_bytes = []
    for _ in range(2):
        sources.append([])
        vm = VM(compile_source(source, entry_class=spec.entry_class,
                               entry_method=spec.entry_method),
                mutation_plan=plan, seed=42)
        vm.run()
        code_bytes.append(vm.compile_stats.total_code_bytes)
    assert sources[0] and sources[0] == sources[1]
    assert code_bytes[0] == code_bytes[1]
