"""repro.analysis: CFG/dataflow framework, escape analysis, and the
``jx lint`` checks (hook completeness, spec safety, quick-code hooks).

The crafted fault programs mirror the acceptance criteria: an unhooked
state-field write produces exactly one hook-completeness finding, and an
installer that leaves a write unhooked gets its class downgraded at
attach.
"""

import pytest

from repro import VM, Telemetry, compile_source
from repro.bytecode import (
    Instr,
    VerifyError,
    disassemble_quick,
    verify_method,
    verify_quick,
    verify_quick_method,
)
from repro.bytecode.opcodes import Op
from repro.analysis import (
    InstrCFG,
    lint_vm,
    lint_workload,
    solve_backward,
    solve_forward,
)
from repro.mutation import build_mutation_plan
from repro.mutation.lifetime import analyze_lifetime_constants
from repro.workloads import all_workloads, get_workload
from tests.helpers import AGGRESSIVE

SALARY = """
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
    public void raise() {
        if (grade == 0) { salary += 1.0; }
        else if (grade == 1) { salary += 2.0; }
        else { salary += 4.0; }
    }
}
class Main {
    static void main() {
        Employee[] emps = new Employee[8];
        for (int i = 0; i < 8; i++) { emps[i] = new SalaryEmployee(i % 3); }
        for (int r = 0; r < 600; r++) {
            for (int j = 0; j < 8; j++) { emps[j].raise(); }
        }
        double total = 0.0;
        for (int j = 0; j < 8; j++) { total += emps[j].salary; }
        Sys.print("" + total);
    }
}
"""


def _mutated_vm(source=SALARY, **kwargs):
    plan = build_mutation_plan(source)
    return VM(compile_source(source), mutation_plan=plan, **kwargs)


def _hooked_site(vm, cls, method):
    minfo = vm.unit.classes[cls].methods[method]
    return next(
        i for i in minfo.code
        if i.op is Op.PUTFIELD and i.state_hook is not None
    )


# ---------------------------------------------------------------------------
# CFG and the dataflow engine
# ---------------------------------------------------------------------------

def test_cfg_edges_and_exception_flow():
    unit = compile_source(SALARY)
    method = unit.classes["SalaryEmployee"].methods["raise"]
    cfg = InstrCFG(method.code)
    n = len(method.code)
    assert cfg.exit == n
    for i, instr in enumerate(method.code):
        succs = cfg.succs[i]
        assert succs, f"node {i} has no successors"
        for s in succs:
            assert 0 <= s <= n
            assert i in cfg.preds[s]
        if instr.op in (Op.RETURN, Op.RETURN_VOID):
            assert succs == [cfg.exit]
        if instr.op in (Op.JUMP_IF_TRUE, Op.JUMP_IF_FALSE):
            assert len(succs) == 2


def test_solve_forward_reachability_and_join():
    # 0 -> 1 -> 3, 0 -> 2 -> 3; node 4 unreachable.
    succs = [[1, 2], [3], [3], [], []]
    states = solve_forward(
        succs,
        transfer=lambda i, s: s | {i},
        join=lambda a, b: a | b,
        boundary={0: frozenset()},
    )
    assert states[0] == frozenset()
    assert states[3] == {0, 1} | {0, 2}
    assert states[4] is None  # unreachable stays None


def test_solve_backward_must_analysis():
    # Diamond: 0 -> {1, 2} -> 3(exit). Node 1 satisfies, node 2 kills.
    succs = [[1, 2], [3], [3], []]

    def transfer(i, out):
        if i == 1:
            return True
        if i == 2:
            return False
        return out

    states = solve_backward(
        succs, transfer, join=lambda a, b: a and b, top=True,
        boundary={3: False},
    )
    assert states[1] is True and states[2] is False
    assert states[0] is False  # must = AND over both paths


# ---------------------------------------------------------------------------
# Lint: all shipped workloads are clean (acceptance criterion)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name", [spec.name for spec in all_workloads()]
)
def test_shipped_workloads_lint_clean(name):
    findings = lint_workload(get_workload(name))
    assert findings == [], [f.format() for f in findings]


# ---------------------------------------------------------------------------
# Crafted faults (acceptance criteria)
# ---------------------------------------------------------------------------

def test_unhooked_state_write_is_exactly_one_finding():
    vm = _mutated_vm()
    assert lint_vm(vm) == []
    site = _hooked_site(vm, "SalaryEmployee", "promote")
    site.state_hook = None
    findings = lint_vm(vm)
    assert len(findings) == 1
    f = findings[0]
    assert f.check == "hook-completeness"
    assert f.subject == "SalaryEmployee.grade"
    assert f.where == "SalaryEmployee.promote"


def test_foreign_hook_closure_is_flagged():
    vm = _mutated_vm()
    site = _hooked_site(vm, "SalaryEmployee", "demoteTo")
    site.state_hook = lambda _vm, _obj: None  # not the manager's hook
    findings = lint_vm(vm)
    assert len(findings) == 1
    assert findings[0].check == "hook-completeness"


def test_missing_ctor_exit_hook_is_flagged():
    vm = _mutated_vm()
    rm = vm.classes["SalaryEmployee"].own_methods["<init>/1"]
    assert rm.ctor_exit_hook is not None
    rm.ctor_exit_hook = None
    findings = lint_vm(vm)
    assert [f.check for f in findings] == ["hook-completeness"]
    assert "constructor" in findings[0].message


# ---------------------------------------------------------------------------
# Attach-time audit: violations downgrade the plan
# ---------------------------------------------------------------------------

def test_unhooked_write_is_downgraded_at_attach(monkeypatch):
    """Seed an installer fault: an installer that leaves one
    ``GradeEmployee.moveTo`` state write unhooked.  The audit must
    detach the class, count the downgrade, and leave the program
    correct (merely unspecialized)."""
    from repro.mutation.manager import MutationManager
    from tests.test_tib_properties import MULTI_SOURCE

    plan = build_mutation_plan(MULTI_SOURCE)
    install = MutationManager._install_field_hooks

    def faulty(self):
        install(self)
        move = self.vm.unit.classes["GradeEmployee"].methods["moveTo"]
        site = next(i for i in move.code if i.state_hook is not None)
        site.state_hook = None

    monkeypatch.setattr(MutationManager, "_install_field_hooks", faulty)
    tel = Telemetry()
    vm = VM(compile_source(MULTI_SOURCE), mutation_plan=plan, telemetry=tel)
    monkeypatch.undo()

    manager = vm.mutation_manager
    assert list(manager.downgraded_classes) == ["GradeEmployee"]
    assert "GradeEmployee" not in manager.mcrs
    assert vm.mutation_stats.plans_downgraded == 1
    counters = tel.summary()["counters"]
    assert counters["analysis.plan_downgraded"] == 1
    assert tel.bus.count("plan_downgraded") == 1

    out = vm.run().output
    off = VM(compile_source(MULTI_SOURCE)).run().output
    assert out == off, "downgraded program diverged from unmutated run"
    # No object ever lands on a special TIB after the downgrade.
    assert vm.mutation_stats.tib_swaps == 0
    findings = lint_vm(vm)
    assert [f.check for f in findings] == ["spec-safety"]
    assert "downgraded" in findings[0].message


# ---------------------------------------------------------------------------
# Escape analysis: the soundness regression and the precision gain
# ---------------------------------------------------------------------------

#: H.s is passed into M's second constructor *under a ternary join*:
#: the old linear walker resets its stack at block leaders, loses the
#: tag for ``s`` sitting below the join, and misses the escape — then
#: publishes v=7 as a lifetime constant although ctor2 writes
#: ``other.v = 99`` (an own-ctor write, exempt from the outside-writes
#: check).  The CFG engine propagates tags through the join.
ESCAPE_REGRESSION = """
class M {
    int v;
    M() { v = 7; }
    M(M other, int flip) { other.v = 99; v = flip; }
    public int get() { return v; }
}
class H {
    private M s;
    H() { s = new M(); }
    public int use() { return s.get(); }
    public void trash(boolean p) { M t = new M(s, p ? 1 : 2); }
}
class Main {
    static void main() {
        H h = new H();
        h.trash(true);
        Sys.print("" + h.use());
    }
}
"""


def test_syntactic_engine_misses_ternary_escape():
    """Pins the latent soundness bug the CFG engine fixes: the old
    engine publishes H.s with v=7 even though trash() lets ctor2 mutate
    the referenced object."""
    unit = compile_source(ESCAPE_REGRESSION)
    syn = analyze_lifetime_constants(unit, ["M"], engine="syntactic")
    assert syn["H.s"].field_values_by_name == {"v": 7}  # unsound!
    cfg = analyze_lifetime_constants(unit, ["M"], engine="cfg")
    assert "H.s" not in cfg


def test_runtime_confirms_the_escape_is_real():
    """The referenced object's field really does change, so the value
    the old engine would have specialized on is wrong at runtime."""
    out = VM(compile_source(ESCAPE_REGRESSION)).run().output
    assert out.strip() == "99"


def test_cfg_engine_kills_tags_on_reassignment():
    """Precision gain over the old monotone g-locals set: a local that
    *held* g but was reassigned before the call does not escape g."""
    src = """
    class M {
        int v;
        M() { v = 7; }
        public int get() { return v; }
    }
    class H {
        private M s;
        H() { s = new M(); }
        public int swapUse() {
            M t = s;
            t = new M();
            return consume(t);
        }
        private int consume(M x) { return x.get(); }
        public int use() { return s.get(); }
    }
    class Main { static void main() { } }
    """
    unit = compile_source(src)
    cfg = analyze_lifetime_constants(unit, ["M"], engine="cfg")
    assert cfg["H.s"].field_values_by_name == {"v": 7}
    syn = analyze_lifetime_constants(unit, ["M"], engine="syntactic")
    assert "H.s" not in syn  # the old engine over-rejects here


@pytest.mark.parametrize(
    "name", [spec.name for spec in all_workloads()]
)
def test_lifetime_engines_agree_on_workloads(name):
    """Differential check (the satellite cross-check): on every shipped
    workload the flow-sensitive engine reproduces the old results
    exactly — the engines only diverge on the crafted corner cases
    above."""
    spec = get_workload(name)
    src = spec.source(0.05)
    plan = build_mutation_plan(src, entry_class=spec.entry_class)
    unit = compile_source(
        src, entry_class=spec.entry_class, entry_method=spec.entry_method
    )
    classes = sorted(plan.classes)
    cfg = analyze_lifetime_constants(unit, classes, engine="cfg")
    syn = analyze_lifetime_constants(unit, classes, engine="syntactic")
    assert set(cfg) == set(syn)
    for key in cfg:
        assert cfg[key].field_values_by_name == syn[key].field_values_by_name


# ---------------------------------------------------------------------------
# Quickened bodies: verifier and disassembler (satellite a)
# ---------------------------------------------------------------------------

def test_verify_method_rejects_quick_ops_in_pristine_code():
    unit = compile_source(SALARY)
    method = unit.classes["SalaryEmployee"].methods["promote"]
    method.code[0] = Instr(Op.INC, (0, 1))
    with pytest.raises(VerifyError, match="quickened opcode"):
        verify_method(method)


def test_verify_quick_accepts_all_quickened_workload_bodies():
    from repro import VMConfig

    # Quickening is named explicitly: the verifier under test only sees
    # bodies the quickener produced.
    vm = _mutated_vm(adaptive_config=AGGRESSIVE,
                     config=VMConfig(quicken=True))
    vm.run()
    checked = 0
    for rc in vm.classes.values():
        for rm in rc.own_methods.values():
            if rm.quick_code:
                depths = verify_quick_method(rm)
                assert len(depths) == len(rm.quick_code)
                checked += 1
    assert checked > 0, "nothing quickened — test is vacuous"


def test_verify_quick_structural_violations():
    unit = compile_source(SALARY)
    method = unit.classes["SalaryEmployee"].methods["promote"]
    with pytest.raises(VerifyError, match="bad branch target"):
        verify_quick(method, [Instr(Op.JUMP, 99)])
    with pytest.raises(VerifyError, match="underflow"):
        verify_quick(method, [Instr(Op.RETURN)])
    with pytest.raises(VerifyError, match="fall off end"):
        verify_quick(method, [Instr(Op.CONST, 1)])
    with pytest.raises(VerifyError, match="local index"):
        verify_quick(method, [
            Instr(Op.LOAD_RETURN, method.max_locals + 3),
            Instr(Op.NOP),
        ])
    # A well-formed fused body passes and reports per-slot depths.
    depths = verify_quick(method, [
        Instr(Op.LOAD_CONST, (0, 5)),   # width 2, pushes 2
        Instr(Op.CONST, 5),             # covered slot
        Instr(Op.ADD_RETURN),           # pops 2, terminator
    ])
    assert depths[0] == 0 and depths[2] == 2


def test_quick_disasm_shows_fusion_and_covered_slots():
    from repro import VMConfig

    vm = _mutated_vm(adaptive_config=AGGRESSIVE,
                     config=VMConfig(quicken=True))
    vm.run()
    listings = [
        disassemble_quick(rm)
        for rc in vm.classes.values()
        for rm in rc.own_methods.values()
        if rm.quick_code
    ]
    text = "\n".join(listings)
    assert "quickened" in text
    assert "; covered by" in text, "no superinstruction in any listing"
    # Every hooked write is annotated, fused or not.
    assert "; state-field write" in text


def test_quick_code_hook_liveness_check():
    """Replacing the shared PUTFIELD Instr with a copy in the quick body
    (hook no longer live there) is a quick-code finding."""
    from repro import VMConfig

    vm = _mutated_vm(adaptive_config=AGGRESSIVE,
                     config=VMConfig(quicken=True))
    vm.initialize()
    assert lint_vm(vm) == []
    rm = vm.classes["SalaryEmployee"].own_methods["demoteTo"]
    assert rm.quick_code is not None
    code = rm.info.code
    j = next(
        j for j, ins in enumerate(code)
        if ins.op is Op.PUTFIELD and ins.state_hook is not None
    )
    # Find the slot executing j and sever the identity.
    from repro.bytecode.opcodes import op_width

    i = 0
    while i < len(rm.quick_code):
        width = op_width(rm.quick_code[i].op)
        if i <= j < i + width:
            break
        i += width
    q = rm.quick_code[i]
    if q.op is Op.PUTFIELD:
        rm.quick_code[i] = q.copy()
    elif q.op is Op.ADD_PUTFIELD:
        clone = Instr(q.op, q.arg.copy())
        rm.quick_code[i] = clone
    else:
        pytest.skip(f"unexpected covering op {q.op}")
    findings = lint_vm(vm)
    assert [f.check for f in findings] == ["quick-code"]
    assert findings[0].index == j
