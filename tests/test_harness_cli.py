"""Harness and CLI tests (fast, small scales)."""

import re

import pytest

from repro.harness.experiment import (
    compare_warehouses,
    compare_workload,
    run_workload,
)
from repro.harness.cli import main as cli_main
from repro.harness.tables import PAPER_TABLE1, format_table1, table1
from repro.workloads import get_workload


def test_run_workload_collects_metrics():
    spec = get_workload("salarydb")
    m = run_workload(spec, None, repeats=1, scale=0.05)
    assert m.wall_seconds > 0
    assert m.opt_code_bytes > 0
    assert not m.mutated
    assert "total=" in m.output


def test_compare_workload_small_scale():
    spec = get_workload("salarydb")
    from repro.mutation import build_mutation_plan

    plan = build_mutation_plan(spec.source(0.05))
    base = run_workload(spec, None, repeats=1, scale=0.05)
    mut = run_workload(spec, plan, repeats=1, scale=0.05)
    assert base.output == mut.output
    assert mut.special_versions >= 1
    assert mut.special_tib_bytes > 0
    assert mut.tib_swaps >= 1


def test_compare_warehouses_interleaved():
    spec = get_workload("jbb2000")
    comparison = compare_warehouses(
        spec, num_warehouses=2, repeats=2, scale=0.05
    )
    assert len(comparison.deltas) == 2
    assert len(comparison.base_samples[0]) == 2
    assert all(t > 0 for t in comparison.baseline.throughputs)
    assert -0.9 < comparison.steady_state_delta(warmup=1) < 9.0


def test_warehouse_requires_slice_method():
    spec = get_workload("salarydb")
    with pytest.raises(ValueError):
        compare_warehouses(spec, num_warehouses=1, repeats=1)


def test_table1_rows_cover_paper():
    rows = table1()
    assert {r.name for r in rows} == set(PAPER_TABLE1)
    text = format_table1(rows)
    assert "jbb2000" in text and "Microbenchmark" in text


# -- CLI ---------------------------------------------------------------------

def test_cli_workloads(capsys):
    assert cli_main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "salarydb" in out and "jbb2005" in out


def test_cli_run_and_disasm(tmp_path, capsys):
    program = tmp_path / "hello.jx"
    program.write_text(
        'class Main { static void main() { Sys.print("hi " + (2 + 3)); } }'
    )
    assert cli_main(["run", str(program)]) == 0
    assert capsys.readouterr().out == "hi 5\n"
    assert cli_main(["disasm", str(program)]) == 0
    out = capsys.readouterr().out
    assert "invokestatic" in out and "class Main" in out


def test_cli_run_with_mutation(tmp_path, capsys):
    program = tmp_path / "m.jx"
    program.write_text(
        """
        class Counter {
            private int mode;
            Counter(int m) { mode = m; }
            public int step(int x) {
                if (mode == 0) { return x + 1; }
                return x * 2;
            }
        }
        class Main {
            static void main() {
                Counter c = new Counter(0);
                int acc = 0;
                for (int i = 0; i < 400; i++) { acc = c.step(acc) % 9999; }
                Sys.print("" + acc);
            }
        }
        """
    )
    assert cli_main(["run", str(program)]) == 0
    plain = capsys.readouterr().out
    assert cli_main(["run", str(program), "--mutate"]) == 0
    assert capsys.readouterr().out == plain


def test_cli_lint_workload_clean(capsys):
    assert cli_main(["lint", "salarydb", "--strict"]) == 0
    assert capsys.readouterr().out == "salarydb: clean\n"


def test_cli_lint_file_reports_findings(tmp_path, capsys):
    """An unhookable program construct does not exist in source form, so
    drive the finding path through a file and a monkeypatched check is
    avoided: a plain clean file exits 0; --strict still exits 0."""
    program = tmp_path / "clean.jx"
    program.write_text(
        """
        class Counter {
            private int mode;
            Counter(int m) { mode = m; }
            public int step(int x) {
                if (mode == 0) { return x + 1; }
                return x * 2;
            }
        }
        class Main {
            static void main() {
                Counter c = new Counter(0);
                int acc = 0;
                for (int i = 0; i < 400; i++) { acc = c.step(acc) % 9999; }
                Sys.print("" + acc);
            }
        }
        """
    )
    assert cli_main(["lint", "--file", str(program), "--strict"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_strict_fails_on_findings(monkeypatch, capsys):
    from repro.analysis import Finding, lint as lint_mod

    finding = Finding(
        "hook-completeness", "X.m", 3, "X.f", "state write without hook"
    )
    monkeypatch.setattr(lint_mod, "lint_vm", lambda vm, **kw: [finding])
    assert cli_main(["lint", "salarydb"]) == 0  # non-strict: report only
    out = capsys.readouterr().out
    assert "salarydb: 1 finding(s)" in out
    assert "[hook-completeness] X.m @3: X.f" in out
    assert cli_main(["lint", "salarydb", "--strict"]) == 1


def test_cli_lint_tv_counts_bodies_and_strict_fails_when_partial(
        monkeypatch, capsys):
    """``jx lint`` quickens and validates every method before checking;
    a lint that skipped that would check nothing, so ``--strict`` fails
    when fewer bodies were validated than there are methods."""
    from repro.bytecode.quicken import Quickener

    monkeypatch.setenv("JX_TV", "1")
    assert cli_main(["lint", "salarydb", "--strict", "--tv"]) == 0
    out = capsys.readouterr().out
    m = re.search(r"salarydb: clean \((\d+) of (\d+) bodies validated\)",
                  out)
    assert m and m.group(1) == m.group(2), out

    monkeypatch.setattr(Quickener, "quicken_all", lambda self: None)
    assert cli_main(["lint", "salarydb", "--tv"]) == 0  # report only
    assert cli_main(["lint", "salarydb", "--strict"]) == 1
    captured = capsys.readouterr()
    assert "salarydb: clean (only 0 of" in captured.out
    assert "1 target(s) only partly validated" in captured.err


def test_cli_lint_unknown_workload(capsys):
    assert cli_main(["lint", "nosuchworkload"]) == 1


def test_cli_disasm_quick(tmp_path, capsys):
    program = tmp_path / "loop.jx"
    program.write_text(
        """
        class Main {
            static void main() {
                int acc = 0;
                for (int i = 0; i < 500; i++) { acc = (acc + i) % 9999; }
                Sys.print("" + acc);
            }
            static int neverCalled(int x) { return x + 1; }
        }
        """
    )
    assert cli_main(["disasm", "--quick", str(program)]) == 0
    out = capsys.readouterr().out
    assert "quickened" in out
    assert "; covered by" in out
    # Methods the run never called are listed too.
    assert "neverCalled" in out


def test_cli_plan(capsys):
    assert cli_main(["plan", "salarydb"]) == 0
    out = capsys.readouterr().out
    assert "SalaryEmployee" in out and "grade" in out


def test_cli_fig_unknown(capsys):
    assert cli_main(["fig", "99"]) == 1


def test_cli_heap_report(capsys):
    assert cli_main(["heap", "salarydb", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "heap report (width-packed fields)" in out
    assert "modeled vs" in out
    assert "top classes by modeled bytes" in out


def test_cli_stats_heap_and_shapes_lines(capsys):
    assert cli_main(["stats", "salarydb", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "heap         objects=" in out
    # The width-packed charge and its declared-field baseline.
    assert "modeled=" in out and "declared=" in out
