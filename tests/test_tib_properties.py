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
    key = (obj.fields[grade_slot],)
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
# Multi-field state updates: every state write re-evaluates (Fig. 4)
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


def _multi_vm(telemetry=None):
    plan = build_mutation_plan(MULTI_SOURCE)
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


def test_per_write_mode_swaps_twice_per_region():
    """A two-field update re-evaluates at both writes (both hot states
    differ in both fields, so each write lands on a different TIB)."""
    vm = _multi_vm()
    mcr, a, b = _hot_pair_differing_in_both(vm)
    rc = mcr.rc
    obj = rc.allocate(vm)
    rc.own_methods["<init>/2"].compiled.invoke(vm, [obj] + _move_args(mcr, a))
    move = rc.own_methods["moveTo"].compiled
    swaps_before = vm.mutation_stats.tib_swaps
    move.invoke(vm, [obj] + _move_args(mcr, b))
    _check_multi_tib(vm, obj)
    assert vm.mutation_stats.tib_swaps == swaps_before + 2


@pytest.mark.parametrize("seed", [5, 77])
def test_random_writes_keep_tib_matching_state(seed):
    """After every call of a random sequence of two-field updates (with
    and without a call between the writes) the object sits on the TIB
    its current field values select."""
    vm = _multi_vm()
    rc = vm.classes["GradeEmployee"]
    obj = rc.allocate(vm)
    rc.own_methods["<init>/2"].compiled.invoke(vm, [obj, 0, 0])
    rng = random.Random(seed)
    for _ in range(200):
        method = rng.choice(["moveTo", "moveToNoted", "raise"])
        args = [rng.randrange(4), rng.randrange(4)] \
            if method != "raise" else []
        rc.own_methods[method].compiled.invoke(vm, [obj] + args)
        _check_multi_tib(vm, obj)
    assert vm.mutation_stats.tib_swaps > 0


def test_swap_counters_agree_under_telemetry():
    """Acceptance: vm.mutation_stats.tib_swaps and the
    mutation.tib_swap counter report the same value."""
    vm = _multi_vm(telemetry=True)
    vm.run()
    counters = vm.telemetry.summary()["counters"]
    assert vm.mutation_stats.tib_swaps > 0
    assert counters["mutation.tib_swap"] == vm.mutation_stats.tib_swaps


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
    vm.quickener.quicken_all()
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
# VMConfig.shapes is inert
# ---------------------------------------------------------------------------

def _shapes_vm(shapes, telemetry=None):
    from repro import VMConfig

    plan = build_mutation_plan(SOURCE)
    vm = VM(compile_source(SOURCE), mutation_plan=plan,
            adaptive_config=AGGRESSIVE, telemetry=telemetry,
            config=VMConfig(shapes=shapes))
    vm.initialize()
    return vm


@pytest.mark.parametrize("seed", [0, 9, 314])
def test_shapes_on_off_random_writes_byte_identical(seed):
    """``VMConfig.shapes`` changes nothing: the same random mix of state
    writes and calls leaves a shapes-on VM (instrumented, so it swaps
    through the timed closures) and a shapes-off VM with identical
    field values, TIB placement, swap counts, heap numbers and program
    output."""
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
            assert oa.fields == ob.fields
            assert oa.tib.is_special == ob.tib.is_special
            _check_tib_matches_state(
                vm_a, vm_a.classes["SalaryEmployee"], oa,
                vm_a.unit.lookup_field("SalaryEmployee", "grade").slot,
            )

    assert vm_on.mutation_stats.tib_swaps == vm_off.mutation_stats.tib_swaps
    assert vm_on.run().output == vm_off.run().output
    assert vm_on.heap == vm_off.heap


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
