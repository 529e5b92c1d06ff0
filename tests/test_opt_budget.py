"""The ``jx stats`` opt-pass budget report."""

from repro import VM, Telemetry, compile_source
from repro.mutation import build_mutation_plan
from repro.telemetry import format_opt_pass_report
from repro.workloads import get_workload
from tests.helpers import AGGRESSIVE

SCALE = 0.04


def _traced_run():
    spec = get_workload("salarydb")
    source = spec.source(SCALE)
    plan = build_mutation_plan(source)
    tel = Telemetry()
    VM(compile_source(source), mutation_plan=plan,
       adaptive_config=AGGRESSIVE, telemetry=tel).run()
    return tel.summary()


def test_opt_pass_report_ranks_by_total_cost(monkeypatch):
    # The report ranks pass timings, which only fresh compiles record;
    # an environment-enabled compile cache would link every method.
    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    summary = _traced_run()
    tel = Telemetry()
    # Rebuild a Telemetry holding the same metrics via direct writes so
    # the report formats real numbers (summary() is read-only).
    for name, h in summary["histograms"].items():
        if name.startswith("opt.pass_seconds."):
            for _ in range(h["count"] - 1):
                tel.observe(name, h["mean"])
            tel.observe(name, h["sum"] - h["mean"] * (h["count"] - 1))
    report = format_opt_pass_report(tel)
    assert report.startswith("opt pass budget (ranked by total seconds):")
    # Rows are sorted by total seconds, descending.
    totals = []
    names = []
    for line in report.splitlines()[2:]:
        parts = line.split()
        names.append(parts[0])
        totals.append(float(parts[2]))
    assert totals == sorted(totals, reverse=True)
    assert len(totals) >= 3
    # Code generation counts in the budget like any pass.
    assert "codegen" in names


def test_opt_pass_report_empty_without_data():
    assert format_opt_pass_report(Telemetry()) == ""
