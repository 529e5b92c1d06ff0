"""Property-based TIB-swap invariant tests.

Random state-field write sequences (seeded ``random.Random``, no
external dependency) drive mutable objects through hot and cold states;
after every single write the paper's Fig. 4 invariants must hold:

* an object in a hot state points at exactly that state's special TIB;
* an object in any non-hot state points at the class TIB (swap-back);
* writes to non-state fields never fire a mutation hook.
"""

import random

import pytest

from repro import VM, compile_source
from repro.mutation import build_mutation_plan
from tests.helpers import AGGRESSIVE, INTERP_ONLY

SOURCE = """
class Employee {
    double salary;
    public void raise() { }
}
class SalaryEmployee extends Employee {
    private int grade;
    int other;
    SalaryEmployee(int g) { grade = g; }
    public void promote() { grade = grade + 1; }
    public void demoteTo(int g) { grade = g; }
    public void setOther(int v) { other = v; }
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


def _fresh_vm(telemetry=None):
    plan = build_mutation_plan(SOURCE)
    unit = compile_source(SOURCE)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE,
            telemetry=telemetry)
    vm.initialize()
    return vm


def _check_tib_matches_state(vm, rc, obj, grade_slot):
    """The single invariant: TIB reflects the *current* state value."""
    # Under packed layouts the state field may be a pinned trailing slot
    # whose storage is dropped while the object sits in a hot state —
    # read through the shape rather than indexing raw storage.
    f = obj.fields
    key = (
        f[grade_slot] if grade_slot < len(f)
        else obj.tib.shape.pinned[grade_slot],
    )
    if key in rc.special_tibs:
        assert obj.tib is rc.special_tibs[key], (
            f"hot state {key}: object not on its special TIB"
        )
        assert obj.tib.is_special
    else:
        assert obj.tib is rc.class_tib, (
            f"cold state {key}: object not swapped back to class TIB"
        )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 1234])
def test_random_write_sequences_keep_tib_consistent(seed):
    vm = _fresh_vm()
    rc = vm.classes["SalaryEmployee"]
    grade_slot = vm.unit.lookup_field("SalaryEmployee", "grade").slot
    rng = random.Random(seed)

    objs = []
    for _ in range(4):
        obj = rc.allocate(vm)
        rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, rng.randrange(6)])
        _check_tib_matches_state(vm, rc, obj, grade_slot)
        objs.append(obj)

    for _ in range(300):
        obj = rng.choice(objs)
        op = rng.randrange(4)
        if op == 0:
            rc.own_methods["promote"].compiled.invoke(vm, [obj])
        elif op == 1:
            # Mix hot (0-3) and cold (4-9) target states.
            rc.own_methods["demoteTo"].compiled.invoke(
                vm, [obj, rng.randrange(10)]
            )
        elif op == 2:
            rc.own_methods["setOther"].compiled.invoke(
                vm, [obj, rng.randrange(100)]
            )
        else:
            rc.own_methods["raise"].compiled.invoke(vm, [obj])
        for o in objs:
            _check_tib_matches_state(vm, rc, o, grade_slot)


@pytest.mark.parametrize("seed", [11, 42])
def test_swap_back_then_forward_is_lossless(seed):
    """Leaving and re-entering a hot state restores exactly the original
    special TIB object (TIBs are shared per state, never re-created per
    swap)."""
    vm = _fresh_vm()
    rc = vm.classes["SalaryEmployee"]
    demote = rc.own_methods["demoteTo"].compiled
    obj = rc.allocate(vm)
    rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, 1])
    original_specials = dict(rc.special_tibs)
    rng = random.Random(seed)
    for _ in range(100):
        demote.invoke(vm, [obj, rng.randrange(10)])
    assert rc.special_tibs == original_specials
    demote.invoke(vm, [obj, 99])
    assert obj.tib is rc.class_tib
    demote.invoke(vm, [obj, 2])
    assert obj.tib is original_specials[(2,)]


def test_non_state_field_writes_have_no_hooks_installed():
    """Structural half of the third invariant: PUTFIELD on a non-state
    field never carries a state hook."""
    vm = _fresh_vm()
    from repro.bytecode.opcodes import Op

    state_keys = set()
    for class_plan in vm.mutation_manager.plan.classes.values():
        for fld in class_plan.instance_fields + class_plan.static_fields:
            state_keys.add(fld.key)
    assert state_keys, "plan found no state fields — test is vacuous"
    for method in vm.unit.all_methods():
        if method.is_abstract:
            continue
        for instr in method.code:
            if instr.op not in (Op.PUTFIELD, Op.PUTSTATIC):
                continue
            cls_name, field_name = instr.arg
            finfo = vm.unit.lookup_field(cls_name, field_name)
            key = f"{finfo.declaring_class}.{finfo.name}"
            if key not in state_keys:
                assert getattr(instr, "state_hook", None) is None, (
                    f"non-state field {key} got a hook"
                )


def test_non_state_field_writes_never_fire_hooks():
    """Behavioral half: hammering a non-state field leaves the
    hooks-fired counter untouched."""
    vm = _fresh_vm(telemetry=True)
    rc = vm.classes["SalaryEmployee"]
    obj = rc.allocate(vm)
    rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, 0])
    fired_before = vm.telemetry.summary()["counters"].get(
        "mutation.hooks_fired", 0
    )
    set_other = rc.own_methods["setOther"].compiled
    for value in range(50):
        set_other.invoke(vm, [obj, value])
    fired_after = vm.telemetry.summary()["counters"].get(
        "mutation.hooks_fired", 0
    )
    assert fired_after == fired_before
    rc.own_methods["promote"].compiled.invoke(vm, [obj])
    fired_final = vm.telemetry.summary()["counters"].get(
        "mutation.hooks_fired", 0
    )
    assert fired_final > fired_after  # the counter does work


# ---------------------------------------------------------------------------
# Swap coalescing (deferred re-evaluation for multi-field updates)
# ---------------------------------------------------------------------------

MULTI_SOURCE = """
class Employee {
    double salary;
    public void raise() { }
}
class GradeEmployee extends Employee {
    private int grade;
    private int region;
    GradeEmployee(int g, int r) { grade = g; region = r; }
    public void moveTo(int g, int r) { grade = g; region = r; }
    public void note() { salary += 0.125; }
    public void moveToNoted(int g, int r) { grade = g; this.note(); region = r; }
    public void raise() {
        if (grade == 0) {
            if (region == 0) { salary += 1.0; } else { salary += 1.5; }
        } else if (grade == 1) {
            if (region == 0) { salary += 2.0; } else { salary += 2.5; }
        } else { salary *= 1.01; }
    }
}
class Main {
    static void main() {
        GradeEmployee[] emps = new GradeEmployee[8];
        for (int i = 0; i < 8; i++) { emps[i] = new GradeEmployee(i % 2, i % 2); }
        for (int r = 0; r < 600; r++) {
            for (int j = 0; j < 8; j++) { emps[j].raise(); }
            if (r % 200 == 199) {
                for (int j = 0; j < 8; j++) { emps[j].moveTo(j % 2, (j + r) % 2); }
            }
        }
        double total = 0.0;
        for (int j = 0; j < 8; j++) { total += emps[j].salary; }
        Sys.print("" + total);
    }
}
"""


def _multi_vm(coalesce=True, telemetry=None):
    from repro.mutation.plan import MutationConfig

    plan = build_mutation_plan(
        MULTI_SOURCE, config=MutationConfig(coalesce_swaps=coalesce)
    )
    class_plan = plan.classes.get("GradeEmployee")
    assert class_plan is not None and len(class_plan.instance_fields) == 2, (
        "plan must select both grade and region — test is vacuous otherwise"
    )
    unit = compile_source(MULTI_SOURCE)
    vm = VM(unit, mutation_plan=plan, adaptive_config=AGGRESSIVE,
            telemetry=telemetry)
    vm.initialize()
    return vm


def _check_multi_tib(vm, obj):
    mcr = vm.mutation_manager.mcrs["GradeEmployee"]
    values = mcr.read_instance_values(obj)
    special = mcr.tib_by_instance.get(values)
    if special is not None:
        assert obj.tib is special
    else:
        assert obj.tib is mcr.rc.class_tib


def _hot_pair_differing_in_both(vm):
    """Two hot instance-value tuples that differ in every field, so a
    per-write update passes through a different intermediate state."""
    mcr = vm.mutation_manager.mcrs["GradeEmployee"]
    states = list(mcr.tib_by_instance)
    for a in states:
        for b in states:
            if all(x != y for x, y in zip(a, b)):
                return mcr, a, b
    pytest.skip("no hot-state pair differs in both fields")


def _move_args(mcr, values):
    """moveTo(g, r) argument order from the plan's field order."""
    by_name = dict(zip(
        (s.field_name for s in mcr.plan.instance_fields), values
    ))
    return [by_name["grade"], by_name["region"]]


def test_multi_field_update_swaps_once_per_region():
    vm = _multi_vm(coalesce=True)
    mcr, a, b = _hot_pair_differing_in_both(vm)
    rc = mcr.rc
    obj = rc.allocate(vm)
    rc.own_methods["<init>/2"].compiled.invoke(vm, [obj] + _move_args(mcr, a))
    _check_multi_tib(vm, obj)
    move = rc.own_methods["moveTo"].compiled
    for target in (b, a, b, a):
        swaps_before = vm.mutation_stats.tib_swaps
        coalesced_before = vm.mutation_stats.swaps_coalesced
        move.invoke(vm, [obj] + _move_args(mcr, target))
        _check_multi_tib(vm, obj)
        assert vm.mutation_stats.tib_swaps == swaps_before + 1, (
            "a two-field update region must swap exactly once"
        )
        assert vm.mutation_stats.swaps_coalesced == coalesced_before + 1


def test_per_write_mode_swaps_twice_per_region():
    """The control: with coalescing off, the same region re-evaluates at
    both writes (both hot states differ in both fields, so each write
    lands on a different TIB)."""
    vm = _multi_vm(coalesce=False)
    mcr, a, b = _hot_pair_differing_in_both(vm)
    rc = mcr.rc
    obj = rc.allocate(vm)
    rc.own_methods["<init>/2"].compiled.invoke(vm, [obj] + _move_args(mcr, a))
    move = rc.own_methods["moveTo"].compiled
    swaps_before = vm.mutation_stats.tib_swaps
    move.invoke(vm, [obj] + _move_args(mcr, b))
    _check_multi_tib(vm, obj)
    assert vm.mutation_stats.tib_swaps == swaps_before + 2
    assert vm.mutation_stats.swaps_coalesced == 0


@pytest.mark.parametrize("seed", [5, 77])
def test_identical_tibs_with_coalescing_on_and_off(seed):
    """Driving two VMs — coalescing on and off — through the same write
    sequence leaves their objects on corresponding TIBs after every
    region (re-evaluation from final values loses nothing)."""
    vm_on = _multi_vm(coalesce=True)
    vm_off = _multi_vm(coalesce=False)
    objs = []
    for vm in (vm_on, vm_off):
        rc = vm.classes["GradeEmployee"]
        obj = rc.allocate(vm)
        rc.own_methods["<init>/2"].compiled.invoke(vm, [obj, 0, 0])
        objs.append((vm, rc, obj))
    rng = random.Random(seed)
    for _ in range(200):
        method = rng.choice(["moveTo", "moveToNoted", "raise"])
        args = [rng.randrange(4), rng.randrange(4)] \
            if method != "raise" else []
        keys = []
        for vm, rc, obj in objs:
            rc.own_methods[method].compiled.invoke(vm, [obj] + args)
            _check_multi_tib(vm, obj)
            mcr = vm.mutation_manager.mcrs["GradeEmployee"]
            keys.append(mcr.read_instance_values(obj))
        assert keys[0] == keys[1]
    assert vm_on.mutation_stats.swaps_coalesced > 0
    assert vm_off.mutation_stats.swaps_coalesced == 0
    assert (
        vm_on.mutation_stats.tib_swaps <= vm_off.mutation_stats.tib_swaps
    )


def test_call_between_writes_is_a_barrier():
    """moveToNoted calls a method between its two state writes, so the
    first write must keep the re-evaluating hook (the callee dispatches
    through the TIB, which therefore has to be fresh)."""
    from repro.bytecode.opcodes import Op

    vm = _multi_vm(coalesce=True)
    manager = vm.mutation_manager
    assert manager._deferred_hook is not None, (
        "coalescing never engaged — test is vacuous"
    )

    def hooks_of(method_key):
        minfo = vm.unit.classes["GradeEmployee"].methods[method_key]
        return [
            instr.state_hook
            for instr in minfo.code
            if instr.op is Op.PUTFIELD and instr.state_hook is not None
        ]

    plain = hooks_of("moveTo")
    assert plain[0] is manager._deferred_hook
    assert plain[-1] is manager._instance_hook
    noted = hooks_of("moveToNoted")
    assert all(h is manager._instance_hook for h in noted), (
        "a call between state writes must bar deferral"
    )
    # Behavioral half: the barrier region re-evaluates at both writes.
    mcr, a, b = _hot_pair_differing_in_both(vm)
    rc = mcr.rc
    obj = rc.allocate(vm)
    rc.own_methods["<init>/2"].compiled.invoke(vm, [obj] + _move_args(mcr, a))
    swaps_before = vm.mutation_stats.tib_swaps
    rc.own_methods["moveToNoted"].compiled.invoke(
        vm, [obj] + _move_args(mcr, b)
    )
    _check_multi_tib(vm, obj)
    assert vm.mutation_stats.tib_swaps == swaps_before + 2


def test_swap_counters_agree_under_telemetry():
    """Acceptance: manager.tib_swaps, vm.mutation_stats.tib_swaps, and
    the mutation.tib_swap counter report the same value, and coalescing
    is visible in both telemetry and VMStats."""
    vm = _multi_vm(coalesce=True, telemetry=True)
    vm.run()
    counters = vm.telemetry.summary()["counters"]
    assert vm.mutation_stats.tib_swaps > 0
    assert vm.mutation_manager.tib_swaps == vm.mutation_stats.tib_swaps
    assert counters["mutation.tib_swap"] == vm.mutation_stats.tib_swaps
    assert vm.mutation_stats.swaps_coalesced > 0
    assert (
        counters["mutation.swaps_coalesced"]
        == vm.mutation_stats.swaps_coalesced
    )
    assert (
        vm.telemetry.bus.count("swap_coalesced")
        == vm.mutation_stats.swaps_coalesced
    )


# ---------------------------------------------------------------------------
# Inline caches under TIB mutation (quickened dispatch)
# ---------------------------------------------------------------------------

#: SOURCE plus a static caller whose INVOKEVIRTUAL body goes through a
#: TIB-keyed inline cache — the receivers below are SalaryEmployee
#: objects whose TIB pointer swaps between special and class TIBs.
IC_SOURCE = SOURCE.replace(
    "class Main {",
    """class Driver {
    static void call(Employee e) { e.raise(); }
}
class Main {""",
)


def _ic_vm(quicken=True, telemetry=None, adaptive=AGGRESSIVE):
    from repro import VMConfig

    plan = build_mutation_plan(IC_SOURCE)
    vm = VM(compile_source(IC_SOURCE), mutation_plan=plan,
            adaptive_config=adaptive, telemetry=telemetry,
            config=VMConfig(quicken=quicken))
    vm.initialize()
    return vm


def _salary_objs(vm, grades):
    rc = vm.classes["SalaryEmployee"]
    objs = []
    for g in grades:
        obj = rc.allocate(vm)
        rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, g])
        objs.append(obj)
    return rc, objs


@pytest.mark.parametrize("seed", [3, 21, 99])
def test_random_write_call_sequences_quicken_on_off_identical(seed):
    """Quickening is a pure dispatch-layer change: the same random mix
    of state writes and virtual calls leaves both VMs with identical
    field values, corresponding TIB states, and the same swap count."""
    vm_on = _ic_vm(quicken=True)
    vm_off = _ic_vm(quicken=False)
    sides = [(vm,) + _salary_objs(vm, (0, 1, 2, 3))
             for vm in (vm_on, vm_off)]
    grade_slot = vm_on.unit.lookup_field("SalaryEmployee", "grade").slot
    rng = random.Random(seed)
    for _ in range(250):
        idx = rng.randrange(4)
        op = rng.randrange(4)
        arg = rng.randrange(10)
        for vm, rc, objs in sides:
            obj = objs[idx]
            if op == 0:
                rc.own_methods["promote"].compiled.invoke(vm, [obj])
            elif op == 1:
                rc.own_methods["demoteTo"].compiled.invoke(vm, [obj, arg])
            elif op == 2:
                rc.own_methods["setOther"].compiled.invoke(vm, [obj, arg])
            else:
                vm.call_static("Driver", "call", [obj])
        (vm_a, rc_a, objs_a), (vm_b, rc_b, objs_b) = sides
        for oa, ob in zip(objs_a, objs_b):
            assert oa.fields == ob.fields
            assert oa.tib.is_special == ob.tib.is_special
            _check_tib_matches_state(vm_a, rc_a, oa, grade_slot)
            _check_tib_matches_state(vm_b, rc_b, ob, grade_slot)
    assert vm_on.mutation_stats.tib_swaps == vm_off.mutation_stats.tib_swaps
    assert vm_on.run().output == vm_off.run().output


def test_megamorphic_site_with_four_receiver_tibs():
    """One class, four hot states: the same call site sees >= 4 distinct
    receiver TIBs (the paper's special TIBs), crosses the 2-entry cache,
    and de-quickens — while every dispatch stays correct."""
    from repro.bytecode.opcodes import Op

    # Interpreter-only: a promotion would route the site through
    # generated code and the interpreted IC would never fill.
    vm = _ic_vm(telemetry=True, adaptive=INTERP_ONLY)
    rc, objs = _salary_objs(vm, (0, 1, 2, 3))
    tibs = {o.tib for o in objs}
    assert len(tibs) >= 4 and all(t.is_special for t in tibs), (
        "grades 0-3 must each sit on a distinct special TIB"
    )
    for obj in objs:
        vm.call_static("Driver", "call", [obj])
    counters = vm.telemetry.summary()["counters"]
    assert counters["ic.megamorphic"] >= 1
    ic = next(
        c for c in vm.quickener.caches
        if c.site_name.startswith("Driver.call")
    )
    quick = vm.classes["Driver"].own_methods["call"].quick_code
    assert quick[ic.index] is ic.original
    assert quick[ic.index].op is Op.INVOKEVIRTUAL
    # Correctness through and past the transition: grade-0 raise adds
    # 1.0 each call; run one more full round on the de-quickened site.
    salary_slot = vm.unit.lookup_field("Employee", "salary").slot
    before = objs[0].fields[salary_slot]
    vm.call_static("Driver", "call", [objs[0]])
    assert objs[0].fields[salary_slot] == before + 1.0


def test_ic_miss_follows_deopt_to_class_tib():
    """A swap back to the class TIB is *automatically* an IC miss: the
    next call arrives with a different cache key, re-resolves, and
    invokes the class-TIB entry — the event stream shows the hot-state
    miss, then the deopt swap, then the class-TIB miss, in that order."""
    vm = _ic_vm(telemetry=True, adaptive=INTERP_ONLY)
    rc, (obj,) = _salary_objs(vm, (1,))
    assert obj.tib.is_special
    special_tib = obj.tib
    ic = next(
        c for c in vm.quickener.caches
        if c.site_name.startswith("Driver.call")
    )

    before = len(vm.telemetry.bus.events())
    vm.call_static("Driver", "call", [obj])   # miss: records special TIB
    assert ic.k0 is special_tib
    vm.call_static("Driver", "call", [obj])   # hit: no new miss event
    rc.own_methods["demoteTo"].compiled.invoke(vm, [obj, 9])  # cold state
    assert obj.tib is rc.class_tib
    vm.call_static("Driver", "call", [obj])   # miss: class-TIB entry
    assert ic.k1 is rc.class_tib

    interesting = [
        (e.name, e.args.get("special"))
        for e in vm.telemetry.bus.events()[before:]
        if e.name in ("ic_miss", "deopt_to_class_tib")
    ]
    assert interesting == [
        ("ic_miss", True),
        ("deopt_to_class_tib", None),
        ("ic_miss", False),
    ]
    counters = vm.telemetry.summary()["counters"]
    assert counters["ic.miss"] >= 2
    assert counters["ic.hit"] >= 1
    assert counters["mutation.tib_swap"] == vm.mutation_stats.tib_swaps


# ---------------------------------------------------------------------------
# Lint soundness: a clean `jx lint` predicts the runtime invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 13, 512])
def test_lint_clean_programs_never_miss_a_swap(seed):
    """The static/dynamic contract of ``jx lint``: when the linter
    proves hook completeness (zero findings), no random write sequence
    can ever observe an object whose TIB disagrees with its state."""
    from repro.analysis import lint_vm

    vm = _fresh_vm()
    assert lint_vm(vm) == [], "lint must prove this program clean"
    rc = vm.classes["SalaryEmployee"]
    grade_slot = vm.unit.lookup_field("SalaryEmployee", "grade").slot
    rng = random.Random(seed)
    obj = rc.allocate(vm)
    rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, rng.randrange(6)])
    for _ in range(150):
        method, args = rng.choice([
            ("promote", []),
            ("demoteTo", [rng.randrange(10)]),
            ("setOther", [rng.randrange(100)]),
            ("raise", []),
        ])
        rc.own_methods[method].compiled.invoke(vm, [obj] + args)
        _check_tib_matches_state(vm, rc, obj, grade_slot)


def test_lint_finding_predicts_observable_stale_tib():
    """The converse: strip one hook, lint reports exactly the missing
    site — and the runtime really does strand the object on a stale
    special TIB (the bug class the linter exists to catch)."""
    from repro.bytecode.opcodes import Op
    from repro.analysis import lint_vm

    vm = _fresh_vm()
    rc = vm.classes["SalaryEmployee"]
    grade_slot = vm.unit.lookup_field("SalaryEmployee", "grade").slot
    minfo = vm.unit.classes["SalaryEmployee"].methods["demoteTo"]
    site = next(
        i for i in minfo.code
        if i.op is Op.PUTFIELD and i.state_hook is not None
    )
    site.state_hook = None

    findings = lint_vm(vm)
    assert [f.check for f in findings] == ["hook-completeness"]
    assert findings[0].where == "SalaryEmployee.demoteTo"

    obj = rc.allocate(vm)
    rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, 0])
    assert obj.tib is rc.special_tibs[(0,)]
    rc.own_methods["demoteTo"].compiled.invoke(vm, [obj, 1])
    # The write happened, but the unhooked store skipped re-evaluation:
    # the object still dispatches through grade 0's special TIB.
    assert obj.fields[grade_slot] == 1
    assert obj.tib is rc.special_tibs[(0,)], (
        "expected the seeded bug to strand the object on a stale TIB"
    )
    with pytest.raises(AssertionError):
        _check_tib_matches_state(vm, rc, obj, grade_slot)


# ---------------------------------------------------------------------------
# OSR: randomized TIB swaps fired inside a running hot loop
# ---------------------------------------------------------------------------

#: A self-mutating hot loop: ``spin`` both reads and (at random
#: iterations, via the VM's seeded RNG intrinsic) rewrites its own state
#: field, so a specialized frame's speculation is invalidated while the
#: frame is still running — the exact situation mid-frame deopt exists
#: for.  The offline plan builder rightly rejects such a class (the
#: field is unstable), so the plan is built by hand.
OSR_SOURCE = """
class Worker {
    int mode;
    Worker(int m) { mode = m; }
    public int spin(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) {
            if (mode == 0) { acc = acc + 1; }
            else if (mode == 1) { acc = acc + 3; }
            else if (mode == 2) { acc = acc + 7; }
            else { acc = acc + 13; }
            if (Sys.randInt(50) == 0) { mode = Sys.randInt(5); }
        }
        return acc;
    }
}
class Main {
    static Worker[] ws;
    static void main() {
        Sys.randSeed(SEED);
        ws = new Worker[3];
        int total = 0;
        for (int j = 0; j < 3; j++) {
            ws[j] = new Worker(j);
            total = total + ws[j].spin(1500);
        }
        Sys.print("" + total + ":" + ws[0].mode + ":" + ws[1].mode
                  + ":" + ws[2].mode);
    }
}
"""


def _osr_plan():
    from repro.mutation.plan import (
        HotState,
        MutableClassPlan,
        MutationPlan,
        StateFieldSpec,
    )

    plan = MutationPlan()
    plan.classes["Worker"] = MutableClassPlan(
        class_name="Worker",
        instance_fields=[StateFieldSpec("Worker", "mode", False, 1.0)],
        hot_states=[HotState((v,), ()) for v in range(4)],  # 4 is cold
        mutable_methods=["spin"],
    )
    return plan


def _osr_run(seed, adaptive, osr=True, telemetry=None):
    from repro import VMConfig

    source = OSR_SOURCE.replace("SEED", str(seed))
    vm = VM(compile_source(source), mutation_plan=_osr_plan(),
            adaptive_config=adaptive, telemetry=telemetry,
            config=VMConfig(osr=osr))
    out = vm.run().output
    return vm, out


def _worker_states(vm):
    """(mode value, TIB kind) per Worker reachable from Main.ws."""
    mcr = vm.mutation_manager.mcrs["Worker"]
    ws_slot = vm.unit.lookup_field("Main", "ws").slot
    arr = vm.jtoc.get(ws_slot)
    return [
        (
            mcr.read_instance_values(obj),
            "special" if obj.tib.is_special else "class",
        )
        for obj in arr.data
    ]


@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_random_swaps_mid_loop_deopt_and_converge(seed):
    """Randomized TIB-swap sequences fired inside a running hot loop:
    the OSR run must actually enter and deopt, and finish with output,
    per-object fields, TIB placement, and swap counts identical to the
    pure-interpreter run and to the OSR-off run."""
    interp_vm, interp_out = _osr_run(seed, INTERP_ONLY)
    osr_vm, osr_out = _osr_run(seed, AGGRESSIVE, osr=True)
    off_vm, off_out = _osr_run(seed, AGGRESSIVE, osr=False)

    assert osr_out == interp_out, "OSR run diverged from interpreter"
    assert off_out == interp_out, "OSR-off run diverged from interpreter"

    assert _worker_states(osr_vm) == _worker_states(interp_vm)
    assert _worker_states(off_vm) == _worker_states(interp_vm)

    # Hot final states sit on special TIBs, cold ones on the class TIB.
    for values, kind in _worker_states(osr_vm):
        expected = "special" if values[0] in range(4) else "class"
        assert kind == expected

    assert (
        osr_vm.mutation_stats.tib_swaps
        == interp_vm.mutation_stats.tib_swaps
        == off_vm.mutation_stats.tib_swaps
    )

    # The property is vacuous unless both transfer directions fired.
    assert osr_vm.mutation_stats.osr_enters >= 1
    assert osr_vm.mutation_stats.osr_deopts >= 1
    assert off_vm.mutation_stats.osr_enters == 0
    assert off_vm.mutation_stats.osr_deopts == 0


@pytest.mark.parametrize("seed", [7])
def test_osr_event_ordering(seed):
    """Telemetry tells the OSR story in causal order: a continuation is
    compiled before its frame enters it, and a mid-frame deopt can only
    follow the specialized compile whose speculation it abandons."""
    vm, _ = _osr_run(seed, AGGRESSIVE, osr=True, telemetry=True)
    events = vm.telemetry.bus.events()

    enters = [e for e in events if e.name == "osr_enter"]
    deopts = [e for e in events if e.name == "osr_deopt"]
    assert enters and deopts

    for enter in enters:
        prior = [
            e for e in events
            if e.name == "compile_end" and e.args.get("osr")
            and e.args.get("method") == enter.args["method"]
            and e.seq < enter.seq
        ]
        assert prior, f"osr_enter before its continuation compile: {enter}"
        assert enter.args["to_level"] >= 1
    for deopt in deopts:
        prior = [
            e for e in events
            if e.name == "compile_begin" and e.args.get("special")
            and e.args.get("method") == deopt.args["method"]
            and e.seq < deopt.seq
        ]
        assert prior, f"osr_deopt before any specialized compile: {deopt}"

    bus = vm.telemetry.bus
    assert bus.count("osr_enter") == vm.mutation_stats.osr_enters
    assert bus.count("osr_deopt") == vm.mutation_stats.osr_deopts
    counters = vm.telemetry.summary()["counters"]
    assert counters["osr.enter"] == vm.mutation_stats.osr_enters
    assert counters["osr.deopt"] == vm.mutation_stats.osr_deopts


# ---------------------------------------------------------------------------
# Specialization sharing + memoization (equivalence modulo state)
# ---------------------------------------------------------------------------

#: Two state fields, but ``rate`` reads only ``band`` — states that
#: differ only in ``tag`` are equivalent modulo the method's read set.
#: ``rate`` is padded past the inliner's callee-size limit so opt2
#: callers dispatch through the TIB (where memo wrappers live).
EQ_SOURCE = """
class Meter {
    private int band;
    int tag;
    Meter(int b, int t) { band = b; tag = t; }
    public void setBand(int b) { band = b; }
    public void setTag(int t) { tag = t; }
    public int rate(int units) {
        if (band == 0) { return units * 2; }
        if (band == 1) { return units * 3 + 1; }
        if (band == 2) { return units * 5 + 2; }
        if (band == 3) { return units * 7 + 3; }
        if (band == 4) { return units * 11 + 4; }
        if (band == 5) { return units * 13 + 5; }
        return units * 19 + 7;
    }
}
class Main {
    static Meter[] ms;
    static void main() {
        ms = new Meter[4];
        for (int i = 0; i < 4; i++) { ms[i] = new Meter(i % 2, i / 2); }
        int total = 0;
        for (int r = 0; r < 400; r++) {
            for (int j = 0; j < 4; j++) {
                total = total + ms[j].rate(r % 5);
            }
        }
        Sys.print("" + total);
    }
}
"""


def _eq_plan():
    from repro.mutation.plan import (
        HotState,
        MutableClassPlan,
        MutationPlan,
        StateFieldSpec,
    )

    plan = MutationPlan()
    plan.classes["Meter"] = MutableClassPlan(
        class_name="Meter",
        instance_fields=[
            StateFieldSpec("Meter", "band", False, 1.0),
            StateFieldSpec("Meter", "tag", False, 1.0),
        ],
        hot_states=[HotState((b, t), ()) for b in (0, 1) for t in (0, 1)],
        mutable_methods=["rate"],
    )
    return plan


def _eq_vm(spec_share=True, memo=True, telemetry=None):
    from repro import VMConfig

    vm = VM(compile_source(EQ_SOURCE), mutation_plan=_eq_plan(),
            adaptive_config=AGGRESSIVE, telemetry=telemetry,
            config=VMConfig(spec_share=spec_share, memo=memo))
    vm.run()
    return vm


def _bare(cm):
    """Unwrap a memo wrapper down to the raw compiled body."""
    return getattr(cm, "inner", cm)


def test_states_differing_only_in_unread_fields_compile_identically():
    """The sharing precondition, checked against the unshared compiler:
    two hot states that differ only in a field ``rate`` never reads
    produce byte-identical specialized sources — and with sharing on,
    literally the same compiled object."""
    plain = _eq_vm(spec_share=False, memo=False)
    rm = plain.lookup("Meter", "rate")
    same_a = _bare(rm.specials[((0, 0), ())])
    same_b = _bare(rm.specials[((0, 1), ())])
    diff = _bare(rm.specials[((1, 0), ())])
    assert same_a is not same_b  # compiled twice without sharing...
    assert same_a.source_text == same_b.source_text  # ...to the same text
    assert same_a.source_text != diff.source_text

    shared = _eq_vm(spec_share=True, memo=False)
    rm = shared.lookup("Meter", "rate")
    assert rm.specials[((0, 0), ())] is rm.specials[((0, 1), ())]
    assert rm.specials[((1, 0), ())] is rm.specials[((1, 1), ())]
    # (Cross-VM source comparison is meaningless — temp-register numbers
    # depend on global compile order — but the share key *is* the exact
    # read-set projection, so identity here is the same property.)


@pytest.mark.parametrize("seed", [2, 31, 404])
def test_memo_on_off_random_writes_byte_identical(seed, monkeypatch):
    """Memoization is invisible to program state: the same random mix of
    state writes and virtual calls leaves both VMs with byte-identical
    heaps and call results — and a swap always invalidates, so a result
    computed for the old state is never replayed for the new one."""
    # Memo wrappers need the IR of a freshly compiled special; a
    # cache-linked one carries none (see repro.vm.memo), so this test
    # must not run on an environment-enabled compile cache.
    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    vm_on = _eq_vm(memo=True)
    vm_off = _eq_vm(memo=False)
    sides = []
    for vm in (vm_on, vm_off):
        rc = vm.classes["Meter"]
        objs = []
        for i in range(4):
            obj = rc.allocate(vm)
            rc.own_methods["<init>/2"].compiled.invoke(
                vm, [obj, i % 2, i // 2]
            )
            objs.append(obj)
        sides.append((vm, rc, objs))
    offset = vm_on.lookup("Meter", "rate").vtable_offset

    rng = random.Random(seed)
    for _ in range(250):
        idx = rng.randrange(4)
        op = rng.randrange(4)
        arg = rng.randrange(8)
        results = []
        for vm, rc, objs in sides:
            obj = objs[idx]
            if op == 0:
                rc.own_methods["setBand"].compiled.invoke(vm, [obj, arg])
            elif op == 1:
                rc.own_methods["setTag"].compiled.invoke(vm, [obj, arg])
            else:
                # Virtual dispatch: the memo wrapper (if any) sits in
                # the TIB entry.
                results.append(
                    obj.tib.entries[offset].invoke(vm, [obj, arg])
                )
        if results:
            assert results[0] == results[1]
        (vm_a, _rc_a, objs_a), (vm_b, _rc_b, objs_b) = sides
        for oa, ob in zip(objs_a, objs_b):
            assert oa.fields == ob.fields
            assert oa.tib.is_special == ob.tib.is_special
    assert vm_on.mutation_stats.memo_hits > 0
    assert vm_off.mutation_stats.memo_hits == 0
    assert vm_on.mutation_stats.tib_swaps == vm_off.mutation_stats.tib_swaps


def test_every_memo_hit_has_a_prior_compatible_fill():
    """The memo table never invents results: each ``memo_hit`` event is
    preceded by a ``memo_fill`` with the same method, state key, and
    epoch — i.e. the hit replays a value computed under a compatible
    receiver state, never across an invalidation."""
    vm = _eq_vm(memo=True, telemetry=True)
    rc = vm.classes["Meter"]
    offset = vm.lookup("Meter", "rate").vtable_offset
    obj = rc.allocate(vm)
    rc.own_methods["<init>/2"].compiled.invoke(vm, [obj, 0, 0])
    for band in (0, 1, 0):
        rc.own_methods["setBand"].compiled.invoke(vm, [obj, band])
        for _ in range(3):
            obj.tib.entries[offset].invoke(vm, [obj, 5])

    events = vm.telemetry.bus.events()
    hits = [e for e in events if e.name == "memo_hit"]
    assert hits, "workload produced no memo hits — test is vacuous"
    sig = lambda e: (
        e.args["method"], e.args["state"], e.args["epoch"]
    )
    for hit in hits:
        fills = [
            e for e in events
            if e.name == "memo_fill" and e.seq < hit.seq
            and sig(e) == sig(hit)
        ]
        assert fills, f"memo_hit with no compatible prior fill: {hit}"
    counters = vm.telemetry.summary()["counters"]
    assert counters["vm.memo_hits"] == vm.mutation_stats.memo_hits
    assert counters["vm.memo_fills"] == vm.memo.fills


# ---------------------------------------------------------------------------
# Shape-based packed layouts (repro.vm.shapes)
# ---------------------------------------------------------------------------

def _shapes_vm(shapes, telemetry=None):
    from repro import VMConfig

    plan = build_mutation_plan(SOURCE)
    vm = VM(compile_source(SOURCE), mutation_plan=plan,
            adaptive_config=AGGRESSIVE, telemetry=telemetry,
            config=VMConfig(shapes=shapes))
    vm.initialize()
    return vm


def _logical_fields(vm, obj):
    """Field values as the program sees them, shape-agnostic."""
    out = {}
    for name in ("salary", "grade", "other"):
        slot = vm.unit.lookup_field("SalaryEmployee", name).slot
        if type(slot) is int:
            out[name] = obj.fields[slot]
        else:
            out[name] = slot.read(obj)
    return out


@pytest.mark.parametrize("seed", [0, 9, 314])
def test_shapes_on_off_random_writes_byte_identical(seed):
    """Packed layouts are invisible to program semantics: the same
    random mix of state writes and calls leaves shapes-on and
    shapes-off VMs with identical logical field values, TIB placement,
    swap counts, allocation counts, and program output — and every
    layout transition rides a counted TIB swap."""
    vm_on = _shapes_vm(True, telemetry=True)
    vm_off = _shapes_vm(False)
    sides = []
    for vm in (vm_on, vm_off):
        rc = vm.classes["SalaryEmployee"]
        objs = []
        for i in range(4):
            obj = rc.allocate(vm)
            rc.own_methods["<init>/1"].compiled.invoke(vm, [obj, i % 4])
            objs.append(obj)
        sides.append((vm, rc, objs))

    rng = random.Random(seed)
    for _ in range(250):
        idx = rng.randrange(4)
        op = rng.randrange(4)
        arg = rng.randrange(10)
        for vm, rc, objs in sides:
            obj = objs[idx]
            if op == 0:
                rc.own_methods["promote"].compiled.invoke(vm, [obj])
            elif op == 1:
                rc.own_methods["demoteTo"].compiled.invoke(vm, [obj, arg])
            elif op == 2:
                rc.own_methods["setOther"].compiled.invoke(vm, [obj, arg])
            else:
                rc.own_methods["raise"].compiled.invoke(vm, [obj])
        (vm_a, _rc_a, objs_a), (vm_b, _rc_b, objs_b) = sides
        for oa, ob in zip(objs_a, objs_b):
            assert _logical_fields(vm_a, oa) == _logical_fields(vm_b, ob)
            assert oa.tib.is_special == ob.tib.is_special
            _check_tib_matches_state(
                vm_a, vm_a.classes["SalaryEmployee"], oa,
                vm_a.unit.lookup_field("SalaryEmployee", "grade").slot,
            )

    assert vm_on.mutation_stats.tib_swaps == vm_off.mutation_stats.tib_swaps
    # Pinning actually engaged: layout transitions fired, and any object
    # resting in a hot state physically dropped its pinned tail slot.
    # (Modeled bytes may not move — grade is a 4-byte int that 8-byte
    # alignment swallows — so assert on storage, not bytes.)
    assert vm_on.heap.shape_transitions > 0
    base_slots = vm_on.classes["SalaryEmployee"].class_tib.shape.n_slots
    for obj in sides[0][2]:
        expected = obj.tib.shape.n_slots if obj.tib.is_special else base_slots
        assert len(obj.fields) == expected
    assert vm_off.heap.shape_transitions == 0
    # Every layout transition rides a counted swap, and telemetry agrees
    # with the heap counter one-to-one.
    assert vm_on.heap.shape_transitions <= vm_on.mutation_stats.tib_swaps
    assert (
        vm_on.telemetry.bus.count("shape_transition")
        == vm_on.heap.shape_transitions
    )
    assert vm_on.run().output == vm_off.run().output
    assert vm_on.heap.objects_allocated == vm_off.heap.objects_allocated


def test_unresolvable_field_write_warns_and_skips_hook():
    """A PUTFIELD naming a field the unit cannot resolve (stale plan or
    hand-edited bytecode) must not crash hook installation."""
    from repro.mutation.manager import MutationManager

    plan = build_mutation_plan(SOURCE)
    unit = compile_source(SOURCE)
    vm = VM(unit, adaptive_config=AGGRESSIVE)
    minfo = unit.classes["SalaryEmployee"].methods["setOther"]
    from repro.bytecode.opcodes import Op

    target = next(i for i in minfo.code if i.op is Op.PUTFIELD)
    target.arg = ("Ghost", "nope")
    manager = MutationManager(vm, plan)
    with pytest.warns(RuntimeWarning, match="Ghost.nope"):
        manager.attach()
    assert target.state_hook is None
    vm.mutation_manager = manager
    vm.run()  # the doctored program still executes (slot stays resolved)
