"""Smoke tests for jxbench (tiny scales, one repeat).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/jxbench/test_jxbench.py
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> tuple[subprocess.CompletedProcess, dict]:
    out = tmp_path_factory.mktemp("untraced") / "results.json"
    proc, _ = _run("--smoke", "--out", str(out))
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple[subprocess.CompletedProcess, dict]:
    out = tmp_path_factory.mktemp("traced") / "results.json"
    proc, _ = _run("--smoke", "--trace", "1", "--out", str(out))
    return proc, json.loads(out.read_text())


@pytest.mark.parametrize("mode,section", [("untraced", "end_to_end"),
                                          ("traced", "per_layer")])
def test_every_metric_emitted_with_its_unit(mode, section, request):
    proc, results = request.getfixturevalue(mode)
    assert proc.returncode == 0, proc.stderr[-3000:]
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(results["workloads"]) == sorted(names)
    for name, record in results["workloads"].items():
        assert record["failed"] == 0, record["failures"]
        for metric in SPEC[section]:
            emitted = record["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"], (name, metric)
            assert math.isfinite(emitted["value"]), (name, metric)


def test_sampler_fractions_sum_to_one(traced):
    sys.path.insert(0, str(HERE))
    import jxtrace

    _, results = traced
    fractions = [f"{layer}_frac" for layer in jxtrace.LAYERS]
    fractions.append("trace.unattributed_frac")
    assert set(fractions) <= {m["name"] for m in SPEC["per_layer"]}
    for name, record in results["workloads"].items():
        total = sum(record["metrics"][f]["value"] for f in fractions)
        assert total == pytest.approx(1.0), name
        assert record["metrics"]["trace.samples"]["value"] > 0, name


def test_corrupted_reference_fails_every_op(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    entry = reference["outputs"]["salarydb@0.05"]["seeds"]["42"]
    entry["digest"] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    out = tmp_path / "results.json"
    proc, line = _run("--smoke", "--workload", "salarydb",
                      "--reference", str(path), "--out", str(out))
    assert proc.returncode == 1
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0
    record = json.loads(out.read_text())["workloads"]["salarydb"]
    assert record["fail_frac"] == 1.0


def test_trace_wrappers_are_transparent_and_removed():
    sys.path.insert(0, str(HERE))
    import jxtrace
    import protocol

    workload = protocol.WORKLOADS["salarydb"]
    spec = protocol.get_workload(workload.program)
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference["outputs"][f"salarydb@{workload.smoke_scale}"][
        "seeds"]["42"]["digest"]
    plan = protocol.repro.mutation.build_mutation_plan(
        spec.profile_source(), seed=42)
    originals = jxtrace.current_targets()
    recorder = jxtrace.SpanRecorder()
    with recorder.installed():
        assert all(jxtrace.current_targets()[key] is not fn
                   for key, fn in originals.items())
        vm = protocol.VM(
            protocol.compile_program(spec, workload.smoke_scale),
            mutation_plan=plan, seed=42)
        output = vm.run().output
    assert protocol.sha256(output) == expected
    spans = recorder.summary()
    for name in ("lang.compile_source", "vm.linker.link",
                 "mutation.attach", "bytecode.quicken_all",
                 "opt.compile.opt2", "opt.pass.lower"):
        assert spans[name]["count"] > 0, name
    assert all(row["self_s"] <= row["total_s"] + 1e-9
               for row in spans.values())
    after = jxtrace.current_targets()
    assert all(after[key] is fn for key, fn in originals.items())


def test_runs_give_run_to_run_quartiles(tmp_path):
    out = tmp_path / "results.json"
    proc, line = _run("--smoke", "--workload", "weka", "--runs", "2",
                      "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-3000:]
    record = json.loads(out.read_text())["workloads"]["weka"]
    assert len(record["runs"]) == 2
    for metric in SPEC["end_to_end"]:
        combined = record["metrics"][metric["name"]]
        assert combined["n"] == len(combined["samples"]) == 2
        assert combined["value"] == statistics.median(combined["samples"])
    assert line["attempted"] == sum(r["attempted"] for r in record["runs"])


def _run_record(metrics: dict[str, float], failed: int = 0) -> dict:
    return {"workload": "weka", "program": "weka", "scale": 0.3,
            "source_sha256": "x", "reference": {}, "repeats": 3,
            "attempted": 10, "failed": failed, "failures": [],
            "probe_s": {}, "metrics": {
                name: {"value": v, "wall_value": v, "unit": "s"}
                for name, v in metrics.items()}}


def test_combine_counts_a_run_missing_a_metric():
    sys.path.insert(0, str(HERE))
    import protocol
    import run

    run.protocol = protocol
    full = _run_record({"setup_s": 0.05, "run_s": 1.0})
    record = run._combine([full, _run_record({"setup_s": 0.07})])
    assert record["metrics"]["setup_s"]["n"] == 2
    assert record["metrics"]["run_s"]["n"] == 1
    assert record["failed"] == 1 and "run_s" in record["failures"][0]
    assert run.result_line({"workloads": {"weka": record}})["correct"] is False
    # A missing metric that failed ops explain adds no failure.
    record = run._combine([full, _run_record({"setup_s": 0.07}, failed=4)])
    assert record["failed"] == 4


def _result_file(path: Path, samples: list[float], **header) -> Path:
    metrics = {}
    for spec in SPEC["end_to_end"]:
        ordered = sorted(samples)
        metrics[spec["name"]] = {
            "value": ordered[len(ordered) // 2], "q1": ordered[1],
            "q3": ordered[-2], "n": len(samples), "samples": samples,
            "unit": spec["unit"]}
    payload = {"seed": 42, "runs": 1, "min_repeats": 3,
               "smoke": False, "trace": False, **header,
               "workloads": {"salarydb": {"scale": 1.0, "source_sha256": "x",
                                          "metrics": metrics}}}
    path.write_text(json.dumps(payload))
    return path


def test_compare_verdicts_and_refusal(tmp_path):
    base = [1.0, 1.01, 1.02, 1.03, 1.04]
    a = _result_file(tmp_path / "a.json", base)
    same = _result_file(tmp_path / "b.json", [x * 1.01 for x in base])
    proc = subprocess.run([sys.executable, str(RUN), "--compare", str(a),
                           str(same)], cwd=ROOT, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stdout
    assert "within-bound" in proc.stdout
    noisy = _result_file(tmp_path / "c.json", [0.5, 0.7, 1.0, 1.3, 1.6])
    proc = subprocess.run([sys.executable, str(RUN), "--compare", str(a),
                           str(noisy)], cwd=ROOT, capture_output=True,
                          text=True)
    assert proc.returncode == 1 and "unresolved" in proc.stdout
    other_seed = _result_file(tmp_path / "d.json", base, seed=7)
    proc = subprocess.run([sys.executable, str(RUN), "--compare", str(a),
                           str(other_seed)], cwd=ROOT, capture_output=True,
                          text=True)
    assert proc.returncode == 2 and "refusing" in proc.stdout
