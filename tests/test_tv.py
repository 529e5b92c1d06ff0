"""Translation validation (repro.analysis.tv over repro.analysis.symstate).

The crafted mis-transformations — a wrong fused successor, a stale
packed slot index, an OSR entry missing a live local — each yield
exactly one finding of the expected check type AND trigger the
enforcement downgrade end to end (the unprovable body is never run,
output equality holds).  Tests that check one surface build the
VMConfig that surface needs, so they test the same thing whatever the
environment's defaults.  The accounting test pins the three-way
invariant: ``VMStats.tv_*`` == ``analysis.tv_*`` telemetry counters ==
sums over ``tv_validated`` bus events.
"""

from __future__ import annotations

import pytest

from repro import VM, Telemetry, VMConfig, compile_source
from repro.analysis import (
    deopt_guard_findings,
    tv_findings,
    tv_osr_findings,
    tv_shapes_findings,
)
from repro.bytecode import Instr, VerifyError, verify_quick_method
from repro.bytecode.opcodes import Op
from repro.bytecode.quicken import Quickener
from repro.cache.keys import environment_payload
from repro.harness.cli import main as cli_main
from repro.mutation import build_mutation_plan
from repro.vm.adaptive import AdaptiveConfig
from tests.test_analysis import SALARY

LOOP = """
class Main {
    static void main() {
        int a = 0;
        int i = 0;
        while (i < 3000) { a = a + i % 7; i = i + 1; }
        Sys.print("" + a);
    }
}
"""


def _salary_vm(**kwargs):
    return VM(
        compile_source(SALARY),
        mutation_plan=build_mutation_plan(SALARY),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Positive direction: real transformations prove clean
# ---------------------------------------------------------------------------

def test_salary_build_validates_clean():
    vm = _salary_vm()
    stats = vm.mutation_stats
    assert stats.tv_bodies_validated > 0
    assert stats.tv_findings == 0
    assert stats.tv_downgrades == 0
    assert vm.tv_downgrades == {}
    assert vm.tv_seconds > 0.0
    assert tv_findings(vm) == []


def test_workloads_lint_tv_clean():
    assert cli_main(["lint", "salarydb", "--strict", "--tv"]) == 0


def test_stats_reports_tv_line(capsys):
    assert cli_main(["stats", "salarydb", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "lint/tv      on" in out
    assert "bodies_validated=" in out and "downgrades=0" in out


def test_environment_payload_carries_tv_verdict():
    vm = _salary_vm()
    env = environment_payload(vm)
    assert env["tv"] == {"enabled": True, "downgrades": []}


# ---------------------------------------------------------------------------
# Negative 1 (quicken): wrong fused successor
# ---------------------------------------------------------------------------

def test_wrong_fused_successor_found_and_dequickened(monkeypatch):
    expected = _salary_vm().run().output
    rewrite = Quickener._rewrite

    def corrupt_main(self, rm):
        quick = rewrite(self, rm)
        if rm.info.qualified_name == "Main.main":
            i = next(k for k, ins in enumerate(quick)
                     if ins.op is Op.ITER_LT_JF)
            a = quick[i].arg
            # Retarget the fused loop test's jump one slot past the
            # pristine successor: the lockstep outcomes disagree on the
            # continuation pc.
            quick[i] = Instr(Op.ITER_LT_JF, (a[0], a[1], i + 4),
                             quick[i].line)
        return quick

    monkeypatch.setattr(Quickener, "_rewrite", corrupt_main)
    # Without TV the corrupted body is published; the validator finds it.
    unchecked = _salary_vm(config=VMConfig(quicken=True, tv=False))
    unchecked.quickener.quicken_all()
    findings = tv_findings(unchecked)
    assert [f.check for f in findings] == ["tv-quicken"]
    assert findings[0].where == "Main.main"

    # With TV the quickener refuses it before publication.
    vm = _salary_vm(config=VMConfig(quicken=True, tv=True))
    assert vm.run().output == expected
    rm = vm.classes["Main"].own_methods["main"]
    assert rm.quick_code is None, "unprovable body must be de-quickened"
    assert "quicken:Main.main" in vm.tv_downgrades
    assert vm.mutation_stats.tv_downgrades >= 1
    # No compile reads quickened code, so the verdict keys no compile.
    assert environment_payload(vm)["tv"]["downgrades"] == []


# ---------------------------------------------------------------------------
# Negative 2 (shapes): stale packed slot index
# ---------------------------------------------------------------------------

def test_stale_packed_slot_index_one_finding():
    vm = _salary_vm(config=VMConfig(quicken=True, shapes=True))
    vm.quickener.quicken_all()
    rm = vm.classes["Main"].own_methods["main"]
    sites = [ins for ins in rm.info.code if ins.op is Op.GETFIELD]
    qsites = [
        ins for ins in rm.quick_code if ins.op is Op.GETFIELD_QUICK
    ]
    assert sites[0].resolved == 0 and qsites[0].resolved == 0
    # Corrupt BOTH the pristine inline cache and the quickened copy so
    # the staleness is invisible to the quicken lockstep (they agree
    # with each other) and only the layout cross-check can catch it.
    sites[0].resolved = 1
    qsites[0].resolved = 1
    findings = tv_findings(vm)
    assert [(f.check, f.message) for f in findings] == [
        ("tv-shapes", "stale packed slot index 1 (layout says 0)")
    ]


# ---------------------------------------------------------------------------
# Negative 2b (shapes): corrupted pinning shape downgrades the plan
# ---------------------------------------------------------------------------

def test_pinning_shape_corruption_downgrades_plan(monkeypatch):
    import repro.mutation.manager as manager_mod
    from repro.vm.shapes import pinned_shape as real_pinned_shape

    expected = _salary_vm().run().output
    calls = [0]

    def corrupt(rc, state_key, values_by_slot):
        shape = real_pinned_shape(rc, state_key, values_by_slot)
        calls[0] += 1
        if calls[0] == 1 and shape is not None and shape.is_pinning:
            shape.pinned.clear()
        return shape

    monkeypatch.setattr(manager_mod, "pinned_shape", corrupt)
    vm = _salary_vm(config=VMConfig(shapes=True))
    monkeypatch.undo()

    manager = vm.mutation_manager
    downgraded = manager.downgraded_classes["SalaryEmployee"]
    assert [f.check for f in downgraded] == ["tv-shapes"]
    assert "pinning shape covers slots []" in downgraded[0].message
    assert vm.mutation_stats.plans_downgraded == 1
    assert "shapes:SalaryEmployee" in vm.tv_downgrades
    assert vm.run().output == expected
    # The downgrade tears the corrupted TIBs down, so the live-heap
    # check is clean again; the downgrade record is what lint surfaces.
    assert tv_shapes_findings(vm) == []
    findings = [f for f in tv_findings(vm) if f.check == "tv-shapes"]
    assert [f.where for f in findings] == ["SalaryEmployee"]


# ---------------------------------------------------------------------------
# Negative 3 (OSR): entry missing a live local
# ---------------------------------------------------------------------------

def test_osr_entry_missing_live_local_rejected():
    import repro.vm.osr as osr_mod

    agg = AdaptiveConfig(opt1_ticks=16, opt2_ticks=32)

    def mk():
        return VM(compile_source(LOOP), adaptive_config=agg,
                  config=VMConfig(osr=True))

    vm = mk()
    expected = vm.run().output
    assert vm.mutation_stats.osr_enters == 1

    vm = mk()
    real = osr_mod.live_locals
    # The builder now believes no local is live at the loop header, so
    # its continuation would enter with every local dead — the
    # validator's own liveness import disagrees and rejects the entry.
    osr_mod.live_locals = (
        lambda code, **kw: {pc: set() for pc in range(len(code))}
    )
    try:
        out = vm.run().output
    finally:
        osr_mod.live_locals = real
    assert out == expected
    assert vm.mutation_stats.osr_enters == 0, (
        "rejected entry must become a permanent miss, not an enter"
    )
    assert list(vm.tv_downgrades) == ["osr:Main.main@4"]
    findings = [f for f in tv_findings(vm) if f.check == "tv-osr"]
    assert len(findings) == 1
    assert environment_payload(vm)["tv"]["downgrades"] == [
        "osr:Main.main@4"
    ]


def test_osr_entries_validate_clean_after_real_run():
    vm = VM(
        compile_source(LOOP),
        adaptive_config=AdaptiveConfig(opt1_ticks=16, opt2_ticks=32),
        config=VMConfig(osr=True),
    )
    vm.run()
    assert vm.mutation_stats.osr_enters == 1
    assert tv_osr_findings(vm) == []


# ---------------------------------------------------------------------------
# Satellite: deopt-guard lint
# ---------------------------------------------------------------------------

def test_deopt_guard_strip_yields_one_finding(monkeypatch):
    from repro.analysis.tv import _iter_special_irs
    from tests.test_osr import _deopt_run

    # The guards live in the IR of freshly compiled specials; a
    # cache-linked special carries none, so this test must not run on
    # an environment-enabled compile cache.
    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    agg = AdaptiveConfig(opt1_ticks=16, opt2_ticks=32)
    vm, _ = _deopt_run(100, agg, osr=True)
    assert vm.mutation_stats.osr_deopts >= 1
    assert deopt_guard_findings(vm) == []

    stripped = 0
    for _mcr, _rm, tib, fn in _iter_special_irs(vm):
        if tib is None or stripped:
            continue
        for block in fn.blocks.values():
            for i, ins in enumerate(block.instrs):
                if (
                    ins.op == "deoptcheck"
                    and i > 0
                    and block.instrs[i - 1].op == "putfield"
                ):
                    del block.instrs[i]
                    stripped += 1
                    break
            if stripped:
                break
    assert stripped == 1
    findings = deopt_guard_findings(vm)
    assert [(f.check, f.where) for f in findings] == [
        ("deopt-guard", "Worker.spin")
    ]


# ---------------------------------------------------------------------------
# Accounting: stats == telemetry counters == bus event sums
# ---------------------------------------------------------------------------

def test_three_way_accounting_agreement():
    tel = Telemetry()
    vm = _salary_vm(telemetry=tel)
    vm.run()
    stats = vm.mutation_stats
    counters = tel.summary()["counters"]
    events = tel.bus.events("tv_validated")
    assert events, "every enforcement pass must emit a tv_validated event"
    assert (
        stats.tv_bodies_validated
        == counters["analysis.tv_bodies_validated"]
        == sum(e.args["bodies"] for e in events)
    )
    assert stats.tv_bodies_validated > 0
    assert stats.tv_findings == sum(e.args["findings"] for e in events)
    assert stats.tv_downgrades == sum(e.args["downgrades"] for e in events)
    assert "analysis.tv_findings" not in counters  # zero: never bumped
    hist = tel.summary()["histograms"]["analysis.tv_seconds"]
    assert hist["count"] == len(events)


# ---------------------------------------------------------------------------
# Satellite: verify_quick slot-kind rules
# ---------------------------------------------------------------------------

def _find_quick_site(vm, op):
    vm.quickener.quicken_all()
    for rc in vm.classes.values():
        for rm in rc.own_methods.values():
            for ins in rm.quick_code or []:
                if ins.op is op:
                    return rm, ins
    raise AssertionError(f"no {op.name} site in any quickened body")


def test_verify_quick_rejects_int_resolved_shape_site():
    vm = _salary_vm(config=VMConfig(quicken=True, shapes=True))
    rm, ins = _find_quick_site(vm, Op.GETFIELD_SHAPE)
    ins.resolved = 2  # a raw index cannot rematerialize pinned storage
    with pytest.raises(VerifyError, match="GETFIELD_SHAPE"):
        verify_quick_method(rm)


def test_verify_quick_rejects_shape_resolved_quick_site():
    vm = _salary_vm(config=VMConfig(quicken=True, shapes=True))
    _, shape_site = _find_quick_site(vm, Op.GETFIELD_SHAPE)
    rm, ins = _find_quick_site(vm, Op.GETFIELD_QUICK)
    ins.resolved = shape_site.resolved
    with pytest.raises(VerifyError, match="GETFIELD_QUICK"):
        verify_quick_method(rm)


# ---------------------------------------------------------------------------
# Off switch
# ---------------------------------------------------------------------------

def test_tv_off_skips_enforcement():
    vm = _salary_vm(config=VMConfig(tv=False))
    stats = vm.mutation_stats
    assert stats.tv_bodies_validated == 0
    assert stats.tv_downgrades == 0
    assert vm.tv_seconds == 0.0
    assert environment_payload(vm)["tv"]["enabled"] is False


def test_jx_tv_env_default(monkeypatch):
    monkeypatch.setenv("JX_TV", "0")
    assert VMConfig().tv is False
    monkeypatch.setenv("JX_TV", "1")
    assert VMConfig().tv is True
