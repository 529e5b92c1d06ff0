"""OptConfig.budget_gate and the ``jx stats`` opt-pass budget report.

The gate skips ``cse``/``boundselim`` on functions where a cheap
one-scan estimate (:mod:`repro.analysis.estimates`) proves the pass
cannot fire.  Because the estimate is a sound over-approximation,
gating must never change program output — it only moves pass runs into
the ``opt.pass_gated.*`` counters.
"""

from repro import VM, Telemetry, compile_source
from repro.mutation import build_mutation_plan
from repro.opt.pipeline import _bounds_may_help, _cse_may_help
from repro.telemetry import format_opt_pass_report
from repro.workloads import get_workload
from tests.helpers import AGGRESSIVE

SCALE = 0.04


def _gated_run(budget_gate):
    spec = get_workload("salarydb")
    source = spec.source(SCALE)
    plan = build_mutation_plan(source)
    tel = Telemetry()
    vm = VM(compile_source(source), mutation_plan=plan,
            adaptive_config=AGGRESSIVE, telemetry=tel)
    vm.opt_compiler.config.budget_gate = budget_gate
    out = vm.run().output
    return out, tel.summary()


def test_budget_gate_is_default_off_and_output_neutral():
    from repro.opt.pipeline import OptConfig

    assert OptConfig().budget_gate is False
    out_off, sum_off = _gated_run(False)
    out_on, sum_on = _gated_run(True)
    assert out_on == out_off, "budget gate changed program output"

    gated_off = {k: v for k, v in sum_off["counters"].items()
                 if k.startswith("opt.pass_gated")}
    assert gated_off == {}, "gate fired while disabled"
    gated_on = {k: v for k, v in sum_on["counters"].items()
                if k.startswith("opt.pass_gated")}
    assert gated_on.get("opt.pass_gated", 0) > 0
    assert set(gated_on) <= {
        "opt.pass_gated", "opt.pass_gated.cse",
        "opt.pass_gated.boundselim",
    }
    # Gated runs never show up in the pass-seconds histograms: the sum
    # of recorded runs drops by exactly the gated count per pass.
    for name in ("cse", "boundselim"):
        skipped = gated_on.get(f"opt.pass_gated.{name}", 0)
        ran_off = sum_off["histograms"].get(
            f"opt.pass_seconds.{name}", {"count": 0})["count"]
        ran_on = sum_on["histograms"].get(
            f"opt.pass_seconds.{name}", {"count": 0})["count"]
        assert ran_on + skipped == ran_off, name


def test_benefit_estimates_are_sound_on_ir():
    """The gate's soundness contract, checked directly: whenever an
    estimate says a pass cannot help, actually *running* the pass must
    return 0 changes.  (The converse — accepts that turn out to be
    no-ops — is allowed: the estimate is an over-approximation.)"""
    from repro.opt.boundselim import eliminate_bounds_checks
    from repro.opt.cse import local_cse
    from repro.opt.lowering import lower_method

    source = get_workload("salarydb").source(SCALE)
    vm = VM(compile_source(source))  # linking resolves call/intrinsic sites
    saw_reject = saw_accept = False
    for rm in vm.all_runtime_methods():
        method = rm.info
        fn = lower_method(method)
        for estimate, pass_fn in (
            (_cse_may_help, local_cse),
            (_bounds_may_help, eliminate_bounds_checks),
        ):
            if estimate(fn):
                saw_accept = True
            else:
                saw_reject = True
                changed = pass_fn(fn)
                assert not changed, (
                    f"{method.name}: {estimate.__name__} rejected but "
                    f"{pass_fn.__name__} made {changed} change(s)"
                )
    assert saw_reject and saw_accept, "workload exercises both outcomes"


def test_opt_pass_report_ranks_by_total_cost(monkeypatch):
    # The report ranks pass timings, which only fresh compiles record;
    # an environment-enabled compile cache would link every method.
    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    _, summary = _gated_run(True)
    tel = Telemetry()
    # Rebuild a Telemetry holding the same metrics via direct writes so
    # the report formats real numbers (summary() is read-only).
    for name, h in summary["histograms"].items():
        if name.startswith("opt.pass_seconds."):
            for _ in range(h["count"] - 1):
                tel.observe(name, h["mean"])
            tel.observe(name, h["sum"] - h["mean"] * (h["count"] - 1))
    for name, value in summary["counters"].items():
        if name.startswith("opt.pass_gated"):
            tel.count(name, value)
    report = format_opt_pass_report(tel)
    assert report.startswith("opt pass budget (ranked by total seconds):")
    assert "budget-gated (skipped as provably no-op):" in report
    # Rows are sorted by total seconds, descending.
    totals = []
    names = []
    for line in report.splitlines()[2:]:
        parts = line.split()
        if line.strip().startswith("budget-gated"):
            break
        names.append(parts[0])
        totals.append(float(parts[2]))
    assert totals == sorted(totals, reverse=True)
    assert len(totals) >= 3
    # Code generation counts in the budget like any pass.
    assert "codegen" in names


def test_opt_pass_report_empty_without_data():
    assert format_opt_pass_report(Telemetry()) == ""
