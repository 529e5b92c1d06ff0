"""Online mutation manager tests: Fig. 4 / Fig. 5 behaviors."""

import pytest

from repro import VM, compile_source
from repro.mutation import build_mutation_plan
from repro.mutation.plan import (
    HotState,
    MutableClassPlan,
    MutationPlan,
    StateFieldSpec,
)
from tests.helpers import AGGRESSIVE, assert_mutation_equivalent

SALARY = """
class Employee {
    double salary;
    public void raise() { }
}
class SalaryEmployee extends Employee {
    private int grade;
    SalaryEmployee(int g) { grade = g; }
    public void promote() { grade = grade + 1; }
    public void demoteTo(int g) { grade = g; }
    public void raise() {
        if (grade == 0) { salary += 1.0; }
        else if (grade == 1) { salary += 2.0; }
        else if (grade == 2) { salary *= 1.01; }
        else { salary += 4.0; }
    }
}
class Main {
    static void main() {
        Employee[] emps = new Employee[8];
        for (int i = 0; i < 8; i++) { emps[i] = new SalaryEmployee(i % 4); }
        for (int r = 0; r < 600; r++) {
            for (int j = 0; j < 8; j++) { emps[j].raise(); }
        }
        double total = 0.0;
        for (int j = 0; j < 8; j++) { total += emps[j].salary; }
        Sys.print("" + total);
    }
}
"""


def mutated_vm(source, seed=42):
    plan = build_mutation_plan(source, seed=seed)
    unit = compile_source(source)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE, seed=seed)
    vm.run()
    return vm


def test_special_tibs_created_per_hot_state():
    vm = mutated_vm(SALARY)
    rc = vm.classes["SalaryEmployee"]
    assert len(rc.special_tibs) == 4
    for tib in rc.special_tibs.values():
        assert tib.is_special
        assert tib.type_info is rc


def test_specials_generated_at_opt2(capsys=None):
    vm = mutated_vm(SALARY)
    rm = vm.classes["SalaryEmployee"].own_methods["raise"]
    assert rm.compiled.opt_level == 2
    assert len(rm.specials) == 4
    for cm in rm.specials.values():
        assert cm.opt_level == 2
        assert cm.is_special
        # Specialized code is smaller: the grade dispatch is gone.
        assert cm.code_size_bytes < rm.compiled.code_size_bytes


def test_special_tib_entries_point_at_specials():
    vm = mutated_vm(SALARY)
    rc = vm.classes["SalaryEmployee"]
    rm = rc.own_methods["raise"]
    for key, tib in rc.special_tibs.items():
        assert tib.entries[rm.vtable_offset] is rm.specials[(key, ())]


def test_objects_point_at_matching_special_tib():
    plan = build_mutation_plan(SALARY)
    unit = compile_source(SALARY)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    vm.initialize()
    rc = vm.classes["SalaryEmployee"]
    obj = rc.allocate(vm)
    rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, 2])
    assert obj.tib is rc.special_tibs[(2,)]


def test_state_transition_swaps_tib():
    plan = build_mutation_plan(SALARY)
    unit = compile_source(SALARY)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    vm.initialize()
    rc = vm.classes["SalaryEmployee"]
    obj = rc.allocate(vm)
    rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, 0])
    assert obj.tib is rc.special_tibs[(0,)]
    rc.own_methods["promote"].compiled.invoke(vm, [obj])
    assert obj.tib is rc.special_tibs[(1,)]
    # Leaving the hot-state set restores the class TIB (Fig. 4).
    rc.own_methods["demoteTo"].compiled.invoke(vm, [obj, 77])
    assert obj.tib is rc.class_tib
    # And returning to a hot state swaps back.
    rc.own_methods["demoteTo"].compiled.invoke(vm, [obj, 3])
    assert obj.tib is rc.special_tibs[(3,)]


def test_mutation_preserves_output_under_transitions():
    source = SALARY.replace(
        "for (int j = 0; j < 8; j++) { emps[j].raise(); }",
        """for (int j = 0; j < 8; j++) {
            emps[j].raise();
            if (r % 97 == 0) {
                SalaryEmployee se = (SalaryEmployee) emps[j];
                se.demoteTo((r + j) % 5);
            }
        }""",
    )
    assert_mutation_equivalent(source)


def test_instanceof_unaffected_by_special_tib():
    plan = build_mutation_plan(SALARY)
    unit = compile_source(SALARY)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    vm.initialize()
    rc = vm.classes["SalaryEmployee"]
    obj = rc.allocate(vm)
    rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, 1])
    assert obj.tib.is_special
    assert obj.jx_class.is_subtype_of("SalaryEmployee")
    assert obj.jx_class.is_subtype_of("Employee")


def test_subclass_instances_never_mutated():
    source = SALARY.replace(
        "class Main {",
        """
        class Contractor extends SalaryEmployee {
            Contractor(int g) { super(g); }
        }
        class Main {
        """,
    ).replace(
        "emps[i] = new SalaryEmployee(i % 4);",
        "if (i % 2 == 0) { emps[i] = new SalaryEmployee(i % 4); }"
        " else { emps[i] = new Contractor(i % 4); }",
    )
    plan = build_mutation_plan(source)
    unit = compile_source(source)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    vm.initialize()
    contractor_rc = vm.classes["Contractor"]
    obj = contractor_rc.allocate(vm)
    contractor_rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, 0])
    # Exact-class rule: the subclass instance keeps its own class TIB.
    assert obj.tib is contractor_rc.class_tib
    # And behavior matches mutation-off.
    assert_mutation_equivalent(source)


STATIC_STATE = """
class Engine {
    static int mode;   // 0 fast path (dominant), 1 debug
    public int run(int x) {
        if (mode == 0) { return x * 3; }
        return x * 3 + 1;
    }
    static void setMode(int m) { mode = m; }
}
class Main {
    static void main() {
        Engine e = new Engine();
        int total = 0;
        for (int i = 0; i < 2000; i++) {
            total += e.run(i);
            if (i == 1500) { Engine.setMode(1); }
            if (i == 1700) { Engine.setMode(0); }
        }
        Sys.print("" + total);
    }
}
"""


def test_static_only_mutable_class():
    plan = build_mutation_plan(STATIC_STATE)
    if "Engine" not in plan.classes:
        import pytest

        pytest.skip("profiling did not flag Engine as mutable")
    cp = plan.classes["Engine"]
    assert not cp.depends_on_instance
    assert cp.depends_on_static
    # Equivalence under static-state transitions.
    assert_mutation_equivalent(STATIC_STATE)


def test_static_state_patches_class_tib():
    plan = build_mutation_plan(STATIC_STATE)
    import pytest

    if "Engine" not in plan.classes:
        pytest.skip("profiling did not flag Engine as mutable")
    unit = compile_source(STATIC_STATE)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE)
    vm.run()
    rc = vm.classes["Engine"]
    rm = rc.own_methods["run"]
    assert rc.special_tibs == {}  # static-only: no special TIBs (§3.2.2)
    if rm.specials:
        # mode is 0 at end of run: the class TIB must hold the special.
        entry = rc.class_tib.entries[rm.vtable_offset]
        assert entry.is_special


def test_manager_describe_smoke():
    vm = mutated_vm(SALARY)
    text = vm.mutation_manager.describe()
    assert "SalaryEmployee" in text
    assert "special" in text


# ---------------------------------------------------------------------------
# Every hot state compiles its own special; one counter reports them
# ---------------------------------------------------------------------------

TARIFF = """
class Tariff {
    private int band;
    int tag;
    int acc;
    Tariff(int b, int t) { band = b; tag = t; }
    public int rate(int units) {
        if (band == 0) { return units * 2; }
        if (band == 1) { return units * 3 + 1; }
        if (band == 2) { return units * 5 + 2; }
        if (band == 3) { return units * 7 + 3; }
        if (band == 4) { return units * 11 + 4; }
        if (band == 5) { return units * 13 + 5; }
        if (band == 6) { return units * 17 + 6; }
        return units * 19 + 7;
    }
    public void accrue(int u) { acc = acc + u * 2; }
}
class Main {
    static Tariff[] ts;
    static void main() {
        ts = new Tariff[4];
        for (int i = 0; i < 4; i++) { ts[i] = new Tariff(i % 2, i / 2); }
        int total = 0;
        for (int r = 0; r < 400; r++) {
            for (int j = 0; j < 4; j++) {
                total = total + ts[j].rate(r % 5);
                ts[j].accrue(r % 3);
            }
        }
        for (int j = 0; j < 4; j++) { total = total + ts[j].acc; }
        Sys.print("" + total);
    }
}
"""


def _tariff_plan() -> MutationPlan:
    plan = MutationPlan()
    plan.classes["Tariff"] = MutableClassPlan(
        class_name="Tariff",
        instance_fields=[
            StateFieldSpec("Tariff", "band", False, 1.0),
            StateFieldSpec("Tariff", "tag", False, 1.0),
        ],
        # band x tag: 2x2 = 4 hot states, although `rate` reads only
        # band.
        hot_states=[
            HotState((b, t), ()) for b in (0, 1) for t in (0, 1)
        ],
        mutable_methods=["rate"],
    )
    return plan


def _tariff_vm(telemetry=None):
    vm = VM(
        compile_source(TARIFF),
        mutation_plan=_tariff_plan(),
        adaptive_config=AGGRESSIVE,
        telemetry=telemetry,
    )
    vm.run()
    return vm


def test_each_hot_state_compiles_its_own_special():
    # Fig. 5: each hot state compiles its own special and gets its own
    # special TIB, although `rate` reads only one of the two fields.
    vm = _tariff_vm()
    rm = vm.lookup("Tariff", "rate")
    assert len(rm.specials) == 4
    assert len({id(cm) for cm in rm.specials.values()}) == 4
    stats = vm.mutation_stats
    assert stats.specials_compiled == 4
    assert stats.special_tibs_created == 4


def test_specials_accounting_three_way_agreement():
    vm = _tariff_vm(telemetry=True)
    stats = vm.mutation_stats
    counters = vm.telemetry.summary()["counters"]
    assert stats.specials_compiled == counters["mutation.specials_compiled"]
    assert stats.specials_compiled > 0
    assert (
        f"special versions: {stats.specials_compiled}"
        in vm.mutation_manager.describe()
    )


# ---------------------------------------------------------------------------
# apply_static_state falls back to rm.general everywhere
# ---------------------------------------------------------------------------

STATIC_FLIP = """
class Engine {
    static int mode;
    int gain;
    Engine(int g) { gain = g; }
    public int step(int x) {
        if (Engine.mode == 0) { return x + gain; }
        return x * 2 + gain;
    }
    private int boost(int x) {
        if (Engine.mode == 0) { return x + 1; }
        return x * 3;
    }
    public int run(int x) { return this.boost(x); }
    static int calc(int x) {
        if (Engine.mode == 0) { return x; }
        return x * 3;
    }
    static void setMode(int m) { Engine.mode = m; }
}
class Main {
    static void main() {
        Engine e = new Engine(3);
        int total = 0;
        for (int i = 0; i < 300; i++) {
            total = total + e.step(i % 7) + e.run(i % 5)
                  + Engine.calc(i % 11);
        }
        Engine.setMode(1);
        for (int i = 0; i < 300; i++) {
            total = total + e.step(i % 7) + e.run(i % 5)
                  + Engine.calc(i % 11);
        }
        Sys.print("" + total);
    }
}
"""


def _static_only_plan() -> MutationPlan:
    plan = MutationPlan()
    plan.classes["Engine"] = MutableClassPlan(
        class_name="Engine",
        static_fields=[StateFieldSpec("Engine", "mode", True, 1.0)],
        hot_states=[HotState((), (0,)), HotState((), (1,))],
        mutable_methods=["step", "boost", "calc"],
    )
    return plan


def test_static_only_flip_out_restores_general_everywhere():
    """Regression (fallback unification): flip a static-only class out
    of all hot states after the opt2 recompile — every dispatch surface
    (class-TIB entry, JTOC cell, private invokespecial pointer) must
    land on ``rm.general``, never a stale special or pre-opt2 code."""
    vm = VM(
        compile_source(STATIC_FLIP),
        mutation_plan=_static_only_plan(),
        adaptive_config=AGGRESSIVE,
    )
    out = vm.run().output
    rc = vm.classes["Engine"]
    step = vm.lookup("Engine", "step")
    boost = vm.lookup("Engine", "boost")
    calc = vm.lookup("Engine", "calc")
    assert step.specials and calc.specials  # mutation really happened
    assert boost.vtable_offset < 0  # exercises the rm.compiled branch
    # In hot state 1 the special is installed...
    special = step.specials.get(((), (1,)))
    if special is not None:
        assert rc.class_tib.entries[step.vtable_offset] is special

    # ...then flip out of every hot state.
    vm.call_static("Engine", "setMode", [5])
    assert rc.class_tib.entries[step.vtable_offset] is step.general
    assert calc.jtoc_cell.compiled is calc.general
    assert boost.compiled is boost.general
    assert step.general.opt_level == 2

    # The program still runs correctly in the cold state.
    ref = VM(
        compile_source(STATIC_FLIP), adaptive_config=AGGRESSIVE
    ).run().output
    assert out == ref


@pytest.mark.parametrize("workload", ["salarydb", "jbb2000"])
def test_single_state_ctor_hooks_swap_inline(workload):
    """With telemetry off, the constructor-exit hook of every plan class
    with one instance state field carries the ``"single"`` inline spec,
    so opt2 code swaps the TIB inline instead of calling the hook."""
    from repro.analysis.lint import workload_vm
    from repro.workloads import get_workload

    vm = workload_vm(get_workload(workload))
    assert vm.telemetry is None
    single = [
        mcr for mcr in vm.mutation_manager.mcrs.values()
        if len(mcr.instance_slots) == 1
    ]
    assert single
    for mcr in single:
        ctors = [rm for rm in mcr.rc.own_methods.values()
                 if rm.info.is_constructor]
        assert ctors
        for rm in ctors:
            spec = getattr(rm.ctor_exit_hook, "inline_spec", None)
            assert spec is not None and spec[0] == "single", (
                f"{rm.qualified_name}: ctor-exit hook does not swap inline"
            )
