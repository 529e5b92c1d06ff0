#!/usr/bin/env python3
"""jxbench: the JxVM benchmark — seven paper programs plus serving.

Run from the repository root::

    python3 benchmarks/jxbench/run.py                     # all workloads
    python3 benchmarks/jxbench/run.py --workload jbb2005 --seed 7
    python3 benchmarks/jxbench/run.py --trace 1 --out trace.json
    python3 benchmarks/jxbench/run.py --runs 10 --out A.json
    python3 benchmarks/jxbench/run.py --compare A.json B.json
    python3 benchmarks/jxbench/run.py --refresh-reference

One workload runs in this process; several workloads, or several runs
of one, run one after another, each in its own child process.  The last line of standard output is a JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of ``BENCHMARK.json`` (or, with ``--trace 1``, its
per-layer metrics).  Any operation whose output differs from the
reference engine's makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCE_JSON = HERE / "reference.json"
WORKDIR = HERE / ".work"
#: Seeds whose reference digests are committed in reference.json.
COMMITTED_SEEDS = (42, 7)
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 170


def _import_repro() -> None:
    """Put the checkout's ``src`` first on the path, with every ``JX_*``
    switch cleared so the VM runs its defaults, and load the protocols."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"jxbench: no repro package under {SRC}")
    for key in [k for k in os.environ if k.startswith("JX_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    global protocol
    import protocol  # noqa: F811  (needs repro on the path)


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _metric_specs(trace: bool) -> dict[str, dict]:
    spec = _load_json(BENCHMARK_JSON)
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


# -- reference outputs --------------------------------------------------------

def _reference_child(program: str, scale: float, seed: int) -> dict:
    """Run the reference engine in a child process, outside all timing."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--reference-child", program,
         "--scale", repr(scale), "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seconds"] = time.perf_counter() - start
    return result


def _reference_key(program: str, scale: float) -> str:
    return f"{program}@{scale}"


def reference_for(table: dict, workload, scale: float, seed: int) -> dict:
    """The committed reference when it covers this source and seed, else
    one computed now."""
    source_sha = protocol.sha256(
        protocol.get_workload(workload.program).source(scale))
    entry = table.get("outputs", {}).get(
        _reference_key(workload.program, scale))
    if (entry and entry["source_sha256"] == source_sha
            and str(seed) in entry["seeds"]):
        return {**entry["seeds"][str(seed)], "origin": "committed"}
    return {**_reference_child(workload.program, scale, seed),
            "origin": "computed"}


def refresh_reference(path: Path) -> None:
    outputs = {}
    for workload in protocol.WORKLOADS.values():
        for scale in (workload.scale, workload.smoke_scale):
            key = _reference_key(workload.program, scale)
            if key in outputs:
                continue
            source = protocol.get_workload(workload.program).source(scale)
            seeds = {}
            for seed in COMMITTED_SEEDS:
                result = _reference_child(workload.program, scale, seed)
                print(f"{key} seed {seed}: {result['digest'][:16]} "
                      f"({result['seconds']:.1f}s)", file=sys.stderr)
                seeds[str(seed)] = {"digest": result["digest"],
                                    "slice_tx": result["slice_tx"]}
            outputs[key] = {"source_sha256": protocol.sha256(source),
                            "seeds": seeds}
    _write_json(path, {"engine": protocol.REFERENCE_ENGINE,
                       "outputs": outputs})


# -- measuring ---------------------------------------------------------------

def _header(args: argparse.Namespace, min_repeats: int) -> dict:
    return {
        "benchmark": "jxbench",
        "claim": None,
        "seed": args.seed,
        "runs": args.runs,
        "min_repeats": min_repeats,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "workloads": {},
    }


def measure_one(args: argparse.Namespace, name: str, min_repeats: int) -> dict:
    """Measure one workload in this process; returns its result record."""
    workload = protocol.WORKLOADS[name]
    scale = workload.smoke_scale if args.smoke else workload.scale
    table = _load_json(args.reference) if args.reference.is_file() else {}
    reference = reference_for(table, workload, scale, args.seed)
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        run = protocol.WorkloadRun(workload, scale, args.seed, reference,
                                   workdir)
        run.prepare()
        seconds = (0 if args.smoke
                   else _load_json(BENCHMARK_JSON)["run_seconds"])
        run.measure(seconds, min_repeats, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_workdir()
    specs = _metric_specs(bool(args.trace))
    if args.trace:
        values = run.per_layer()
        metrics = {n: {"value": values[n], "unit": specs[n]["unit"]}
                   for n in specs if n in values}
    else:
        summaries = run.end_to_end()
        metrics = {n: {**summaries[n], "unit": specs[n]["unit"]}
                   for n in specs if n in summaries}
    record = {
        "workload": name,
        "program": workload.program,
        "scale": scale,
        "source_sha256": protocol.sha256(run.spec.source(scale)),
        "reference": reference,
        "repeats": run.repeats,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": run.failed / max(run.attempted, 1),
        "failures": run.failures,
        "probe_s": {k: v for k, v in run.probe_summary().items()
                    if k != "samples"},
        "probe_nominal_s": protocol.PROBE_NOMINAL_S,
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = run.recorder.summary()
        if args.chrome_trace:
            Path(args.chrome_trace).mkdir(parents=True, exist_ok=True)
            run.recorder.write_chrome_trace(
                str(Path(args.chrome_trace) / f"{name}.trace.json"))
    return record


def measure_in_children(args: argparse.Namespace, names: list[str]) -> dict:
    """Run each workload ``--runs`` times, each run in its own child
    process, one at a time."""
    records = {}
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        for name in names:
            runs = []
            for index in range(args.runs):
                out = Path(tmp) / f"{name}-{index}.json"
                cmd = [sys.executable, str(Path(__file__)), "--workload",
                       name, "--seed", str(args.seed),
                       "--trace", str(int(args.trace)), "--out", str(out),
                       "--reference", str(args.reference)]
                if args.smoke:
                    cmd.append("--smoke")
                if args.chrome_trace:
                    cmd += ["--chrome-trace", args.chrome_trace]
                # The child's own report goes to our standard error.
                proc = subprocess.run(cmd, stdout=sys.stderr)
                if not out.is_file():
                    sys.exit(f"jxbench: {name} exited {proc.returncode} "
                             "without a result")
                runs.append(_load_json(out)["workloads"][name])
            records[name] = runs[0] if len(runs) == 1 else _combine(runs)
    _remove_workdir()
    return records


def _remove_workdir() -> None:
    try:
        WORKDIR.rmdir()
    except OSError:
        pass  # not empty: a parent or sibling run still uses it


def _combine(runs: list[dict]) -> dict:
    """One record for several runs of a workload: each metric's median
    and quartiles over the medians of the runs that have it, so its
    spread is run to run.  A run missing a metric that no failed op
    explains counts one failure."""
    first = runs[0]
    names = list(dict.fromkeys(m for r in runs for m in r["metrics"]))
    metrics = {}
    for metric in names:
        per_run = [r["metrics"][metric] for r in runs
                   if metric in r["metrics"]]
        metrics[metric] = {
            **protocol.summarize([x["value"] for x in per_run],
                                 [x["wall_value"] for x in per_run
                                  if "wall_value" in x]),
            "unit": per_run[0]["unit"]}
    failures = [f for r in runs for f in r["failures"]]
    failed = sum(r["failed"] for r in runs)
    for index, r in enumerate(runs):
        missing = [m for m in names if m not in r["metrics"]]
        if missing and not r["failed"]:
            failed += 1
            failures.append(f"run {index}: no samples of {', '.join(missing)}")
    attempted = sum(r["attempted"] for r in runs)
    record = {
        **{key: first[key] for key in ("workload", "program", "scale",
                                        "source_sha256", "reference")},
        "repeats": sum(r["repeats"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / max(attempted, 1),
        "failures": failures[:20],
        "metrics": metrics,
        "runs": [{"repeats": r["repeats"], "attempted": r["attempted"],
                  "failed": r["failed"], "probe_s": r["probe_s"].get("value")}
                 for r in runs],
    }
    if "spans" in first:
        spans: dict[str, dict[str, float]] = {}
        for r in runs:
            for name, row in r["spans"].items():
                total = spans.setdefault(name, dict.fromkeys(row, 0))
                for key, value in row.items():
                    total[key] += value
        record["spans"] = spans
    return record


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(results: dict) -> None:
    for name, record in results["workloads"].items():
        ref = record["reference"]
        print(f"{name}: scale {record['scale']}, {record['repeats']} repeats, "
              f"{record['attempted']} ops, {record['failed']} failed, "
              f"reference {ref['origin']}, source "
              f"{record['source_sha256'][:12]}")
        for failure in record["failures"][:5]:
            print(f"  FAILED {failure}")
        for metric, m in record["metrics"].items():
            if "n" in m:
                print(f"  {metric:<34} {_fmt(m['value']):>12} {m['unit']:<6}"
                      f" q1 {_fmt(m['q1'])}  q3 {_fmt(m['q3'])}  n {m['n']}")
            else:
                print(f"  {metric:<34} {_fmt(m['value']):>12} {m['unit']}")


def result_line(results: dict) -> dict:
    records = results["workloads"]
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    single = len(records) == 1
    metrics = {}
    for name, record in records.items():
        for metric, m in record["metrics"].items():
            key = metric if single else f"{name}/{metric}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


# -- comparing -----------------------------------------------------------------

def compare(path_a: Path, path_b: Path) -> int:
    """One row per workload and end-to-end metric, with a verdict."""
    a, b = _load_json(path_a), _load_json(path_b)
    problems = [f"{key} differs ({a.get(key)} vs {b.get(key)})"
                for key in ("seed", "runs", "min_repeats", "smoke")
                if a.get(key) != b.get(key)]
    if a.get("trace") or b.get("trace"):
        problems.append("traced results have no end-to-end metrics")
    if set(a["workloads"]) != set(b["workloads"]):
        problems.append("the workload sets differ")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        for key in ("scale", "source_sha256"):
            if a["workloads"][name][key] != b["workloads"][name][key]:
                problems.append(f"{name}: {key} differs")
    if problems:
        print("refusing to compare: " + "; ".join(problems))
        return 2
    bad = 0
    print(f"{'workload':<14} {'metric':<17} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'delta':>8} {'bound':>6}  verdict")
    for name in a["workloads"]:
        for spec in _load_json(BENCHMARK_JSON)["end_to_end"]:
            ma = a["workloads"][name]["metrics"].get(spec["name"])
            mb = b["workloads"][name]["metrics"].get(spec["name"])
            if ma is None or mb is None:
                print(f"{name:<14} {spec['name']:<17} missing")
                bad += 1
                continue
            verdict = _verdict(ma, mb, spec)
            bad += verdict in ("worse", "unresolved")
            delta = mb["value"] / ma["value"] - 1.0
            cells = [f"{_fmt(m['value'])} [{_fmt(m['q1'])}, {_fmt(m['q3'])}]"
                     for m in (ma, mb)]
            print(f"{name:<14} {spec['name']:<17} {cells[0]:<34} "
                  f"{cells[1]:<34} {delta:>+8.2%} {spec['bound']:>6.0%}  "
                  f"{verdict}")
    return 1 if bad else 0


def _verdict(ma: dict, mb: dict, spec: dict) -> str:
    """better / worse / within-bound, or unresolved when either side's
    quartile spread exceeds the bound — unless every B sample beats
    every A sample."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    spread = max((m["q3"] - m["q1"]) / m["value"] for m in (ma, mb))
    if spread > bound:
        if lower and max(mb["samples"]) < min(ma["samples"]):
            return "better"
        if not lower and min(mb["samples"]) > max(ma["samples"]):
            return "better"
        return "unresolved"
    worse_by = mb["value"] / ma["value"] - 1.0
    if not lower:
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within-bound"


# -- command line -------------------------------------------------------------

def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="extend", nargs="+",
                        metavar="W", help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="must equal BENCHMARK.json run_seconds, the "
                             "measuring time per workload")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, each in its own process; "
                             "with more than one, each metric's quartiles "
                             "are over the runs' medians")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, help="write the results here")
    parser.add_argument("--chrome-trace", metavar="DIR",
                        help="with --trace: write <workload>.trace.json here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scales, one repeat")
    parser.add_argument("--reference", type=Path, default=REFERENCE_JSON,
                        help="reference digests (default: reference.json)")
    parser.add_argument("--refresh-reference", action="store_true",
                        help="regenerate --reference with the reference "
                             "engine")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two untraced result files")
    parser.add_argument("--reference-child", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    run_seconds = _load_json(BENCHMARK_JSON)["run_seconds"]
    if args.seconds not in (None, run_seconds):
        parser.error(f"--seconds must be {run_seconds} (BENCHMARK.json)")
    if args.workload:
        for name in args.workload:
            if name not in _workload_names():
                parser.error(f"unknown workload {name!r}")
    return args


def _workload_names() -> list[str]:
    return [w["name"] for w in _load_json(BENCHMARK_JSON)["workloads"]]


def main(argv: list[str] | None = None) -> int:
    if not BENCHMARK_JSON.is_file():
        sys.exit(f"jxbench: {BENCHMARK_JSON} not found")
    args = _parse(argv)
    if args.compare:
        return compare(*args.compare)
    _import_repro()
    if args.reference_child:
        print(json.dumps(protocol.reference_run(
            args.reference_child, args.scale, args.seed)))
        return 0
    if args.refresh_reference:
        refresh_reference(args.reference)
        return 0
    min_repeats = 1 if args.smoke else MIN_REPEATS
    names = args.workload or _workload_names()
    results = _header(args, min_repeats)
    if len(names) == 1 and args.runs == 1:
        results["workloads"][names[0]] = measure_one(args, names[0],
                                                     min_repeats)
    else:
        results["workloads"] = measure_in_children(args, names)
    if args.out:
        _write_json(args.out, results)
    print_report(results)
    line = result_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
