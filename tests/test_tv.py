"""Translation validation (repro.analysis.tv over repro.analysis.symstate).

The crafted mis-transformations — a wrong fused successor and an OSR
entry missing a live local — each yield exactly one finding of the
expected check type AND trigger the enforcement downgrade end to end
(the unprovable body is never run, output equality holds).  Tests that
check one surface build the VMConfig that surface needs, so they test
the same thing whatever the environment's defaults.  The accounting
test pins the three-way invariant: ``VMStats.tv_*`` == ``analysis.tv_*``
telemetry counters == sums over ``tv_validated`` bus events.
"""

from __future__ import annotations

from repro import VM, Telemetry, VMConfig, compile_source
from repro.analysis import (
    deopt_guard_findings,
    tv_findings,
    tv_osr_findings,
)
from repro.bytecode import Instr
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
    vm = _salary_vm(config=VMConfig(quicken=True, tv=True))
    vm.run()
    stats = vm.mutation_stats
    assert stats.tv_bodies_validated > 0
    assert stats.tv_findings == 0
    assert stats.tv_downgrades == 0
    assert vm.tv_downgrades == {}
    assert vm.tv_seconds > 0.0
    assert tv_findings(vm) == []


def test_workloads_lint_tv_clean():
    assert cli_main(["lint", "salarydb", "--strict", "--tv"]) == 0


def test_lint_tv_validates_each_body_once(monkeypatch):
    """The quickener proves every body before publishing it, so
    ``jx lint --tv`` does not prove the published bodies again."""
    import repro.analysis.tv as tv_mod
    from repro.analysis.lint import lint_vm, workload_vm
    from repro.workloads.registry import get_workload

    monkeypatch.setenv("JX_TV", "1")
    vm = workload_vm(get_workload("salarydb"))
    real = tv_mod.validate_quick_method
    calls = []

    def counting(rm, quick=None):
        calls.append(rm.qualified_name)
        return real(rm, quick)

    monkeypatch.setattr(tv_mod, "validate_quick_method", counting)
    assert lint_vm(vm, tv=True) == []
    assert sorted(calls) == sorted(
        rm.qualified_name for rm in vm.all_runtime_methods()
    )


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
# Negative 2 (OSR): entry missing a live local
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
    vm = _salary_vm(telemetry=tel, config=VMConfig(quicken=True, tv=True))
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
