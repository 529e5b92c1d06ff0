"""Command-line interface: ``jx <subcommand>``.

Subcommands:

* ``run FILE``            — compile and execute a Jx source file;
* ``disasm FILE``         — print the program's bytecode;
* ``workloads``           — list registered benchmark workloads;
* ``plan WORKLOAD``       — run the offline pipeline, print the plan;
* ``compare WORKLOAD``    — measure mutation on vs. off (with a
  telemetry summary: compile seconds by tier, TIB swaps, hooks);
* ``trace WORKLOAD``      — run under telemetry, write Chrome-trace
  JSON for chrome://tracing / Perfetto (``-o trace.json``);
* ``stats WORKLOAD``      — run under telemetry, print the counters /
  histograms / event-taxonomy report;
* ``heap WORKLOAD``       — run, print the modeled-heap report (packed
  vs declared bytes, top classes);
* ``serve WORKLOAD``      — run N concurrent sessions over one shared
  code space (``--sessions N --workers K``); exits nonzero if any two
  same-seed sessions diverge (cross-tenant leakage);
* ``table1``              — regenerate Table 1;
* ``fig N``               — regenerate Figure N (9..15).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.lang import compile_source
from repro.lang.errors import JxError
from repro.mutation import build_mutation_plan
from repro.vm.runtime import VM
from repro.vm.values import VMRuntimeError
from repro.workloads.registry import all_workloads, get_workload


def _cache_dir(args: argparse.Namespace) -> str | None:
    """The compile-cache directory: ``--cache-dir`` or JX_CACHE_DIR."""
    return getattr(args, "cache_dir", None) or \
        os.environ.get("JX_CACHE_DIR") or None


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    unit = compile_source(source, filename=args.file)
    plan = None
    if args.mutate:
        plan = build_mutation_plan(source)
    vm = VM(unit, mutation_plan=plan, compile_cache=_cache_dir(args))
    result = vm.run()
    sys.stdout.write(result.output)
    if args.stats:
        line = (f"--- wall: {result.wall_seconds:.3f}s "
                f"compile: {result.compile_seconds:.3f}s")
        if vm.compile_cache is not None:
            cache = vm.compile_cache
            line += (f" cache: {cache.hits} hits / {cache.misses} misses"
                     f" ({vm.compile_stats.cached_methods} methods"
                     f" warm-linked)")
        print(line, file=sys.stderr)
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.bytecode import disassemble_program

    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    unit = compile_source(source, filename=args.file)
    if not args.quick:
        print(disassemble_program(unit))
        return 0
    # --quick runs the program first, so the methods that ran show
    # their warm inline caches, then quickens the methods the run never
    # called.  Asking for the quickened view forces quickening on.
    from repro.bytecode import disassemble_quick
    from repro.vm.runtime import VMConfig

    plan = build_mutation_plan(source) if args.mutate else None
    vm = VM(unit, mutation_plan=plan, config=VMConfig(quicken=True))
    vm.run()
    vm.quickener.quicken_all()
    shown = 0
    for rc in vm.classes.values():
        for rm in rc.own_methods.values():
            if rm.quick_code:
                print(disassemble_quick(rm))
                shown += 1
    if not shown:
        print("(no quickened methods; quickening disabled or "
              "nothing reached the quickening tier)")
    return 0


def _lint_targets(args: argparse.Namespace):
    """``(name, linked VM)`` per lint target, built one at a time."""
    from repro.analysis.lint import source_vm, workload_vm

    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            source = handle.read()
        yield args.file, source_vm(source, filename=args.file)
        return
    for name in args.workloads or [spec.name for spec in all_workloads()]:
        yield name, workload_vm(get_workload(name))


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint as lint_mod

    total = partial = 0
    for name, vm in _lint_targets(args):
        findings = lint_mod.lint_vm(vm, tv=args.tv)
        note = ""
        coverage = lint_mod.tv_coverage(vm)
        if coverage is not None:
            validated, methods = coverage
            if validated < methods:
                partial += 1
                note = f" (only {validated} of {methods} bodies validated)"
            elif args.tv:
                note = f" ({validated} of {methods} bodies validated)"
        if findings:
            total += len(findings)
            print(f"{name}: {len(findings)} finding(s){note}")
            for finding in findings:
                print(f"  {finding.format()}")
        else:
            print(f"{name}: clean{note}")
    if (total or partial) and args.strict:
        print(f"jx lint: {total} finding(s), {partial} target(s) only "
              f"partly validated", file=sys.stderr)
        return 1
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    for spec in all_workloads():
        print(f"{spec.name:12s} {spec.description}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    spec = get_workload(args.workload)
    plan = build_mutation_plan(
        spec.profile_source(), entry_class=spec.entry_class
    )
    print(plan.describe())
    if args.json:
        from repro.profiling import plan_to_json

        print(plan_to_json(plan))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.harness.experiment import (
        compare_workload,
        telemetry_compile_summary,
    )

    spec = get_workload(args.workload)
    cache_dir = _cache_dir(args)
    comparison = compare_workload(
        spec, repeats=args.repeats, telemetry=not args.no_telemetry,
        cache=cache_dir,
    )
    print(f"{spec.name}: baseline {comparison.baseline.wall_seconds:.3f}s, "
          f"mutated {comparison.mutated.wall_seconds:.3f}s, "
          f"speedup {comparison.speedup:+.1%}, "
          f"outputs match: {comparison.outputs_match}")
    if not args.no_telemetry:
        base = telemetry_compile_summary(
            comparison.baseline.telemetry_report
        )
        mut = telemetry_compile_summary(
            comparison.mutated.telemetry_report
        )

        def tiers(summary: dict) -> str:
            by_tier = summary["compile_seconds_by_tier"]
            return " ".join(
                f"{tier}={seconds:.3f}s"
                for tier, seconds in sorted(by_tier.items())
            ) or "-"

        print(f"  compile seconds  baseline {base['compile_seconds_total']:.3f}s"
              f" ({tiers(base)})")
        print(f"                   mutated  {mut['compile_seconds_total']:.3f}s"
              f" ({tiers(mut)})")
        print(f"  tib swaps        baseline {base['tib_swaps']}, "
              f"mutated {mut['tib_swaps']} "
              f"(of which {mut['deopt_swaps']} back to class TIB)")
        print(f"  hooks fired      baseline {base['hooks_fired']}, "
              f"mutated {mut['hooks_fired']}; "
              f"specials compiled: {mut['specials_compiled']}")
    bm, mm = comparison.baseline, comparison.mutated
    if bm.declared_heap_bytes:
        saved = 1.0 - bm.modeled_heap_bytes / bm.declared_heap_bytes
        print(f"  heap             baseline {bm.modeled_heap_bytes}B modeled"
              f" vs {bm.declared_heap_bytes}B declared ({saved:.1%} packed"
              f" out); mutated {mm.modeled_heap_bytes}B")
    if cache_dir is not None:
        b, m = comparison.baseline, comparison.mutated
        hits = b.cache_hits + m.cache_hits
        lookups = hits + b.cache_misses + m.cache_misses
        rate = hits / lookups if lookups else 0.0
        print(f"  compile cache    hit rate {rate:.0%} "
              f"({hits}/{lookups} lookups) in {cache_dir}")
        print(f"  warm vs cold     baseline "
              f"{b.cold_compile_seconds:.3f}s -> "
              f"{b.warm_compile_seconds:.3f}s compile; mutated "
              f"{m.cold_compile_seconds:.3f}s -> "
              f"{m.warm_compile_seconds:.3f}s")
    if not comparison.outputs_match:
        print(f"jx compare: {spec.name}: baseline and mutated outputs "
              f"differ", file=sys.stderr)
        return 1
    return 0


def _run_instrumented(args: argparse.Namespace):
    """Shared driver for ``trace``/``stats``: one telemetry-enabled run
    of the workload (mutation on by default, like ``compare``'s mutated
    side)."""
    from repro.lang import compile_source as _compile
    from repro.telemetry import Telemetry
    from repro.vm.runtime import VM as _VM

    spec = get_workload(args.workload)
    scale = args.scale if args.scale is not None else spec.bench_scale
    source = spec.source(scale)
    plan = None
    if not args.no_mutate:
        plan = build_mutation_plan(
            spec.profile_source(), entry_class=spec.entry_class
        )
    telemetry = Telemetry(capacity=args.capacity)
    unit = _compile(
        source,
        filename=f"<{spec.name}>",
        entry_class=spec.entry_class,
        entry_method=spec.entry_method,
    )
    vm = _VM(unit, mutation_plan=plan, telemetry=telemetry,
             compile_cache=_cache_dir(args))
    result = vm.run()
    return spec, vm, result, telemetry


def _cmd_heap(args: argparse.Namespace) -> int:
    spec, vm, _result, _telemetry = _run_instrumented(args)
    heap = vm.heap
    declared = heap.declared_object_bytes
    modeled = heap.modeled_object_bytes()
    saved = (1.0 - modeled / declared) if declared else 0.0
    print(f"{spec.name}: heap report (width-packed fields)")
    print(f"objects      {heap.objects_allocated} allocated; "
          f"{modeled}B modeled vs {declared}B declared "
          f"({saved:.1%} packed out)")
    print(f"arrays       {heap.arrays_allocated} allocated; "
          f"{heap.array_bytes}B (width-scaled elements)")
    print("top classes by modeled bytes")
    print(f"  {'class':24s} {'count':>8s} {'bytes':>10s} "
          f"{'packed':>7s} {'declared':>9s}")
    for name, total in heap.top_classes_by_bytes(args.top):
        rc = vm.classes.get(name)
        packed = rc.alloc_bytes if rc and rc.alloc_bytes else "-"
        decl = rc.declared_bytes if rc and rc.declared_bytes else "-"
        print(f"  {name:24s} {heap.per_class.get(name, 0):>8d} "
              f"{total:>10d} {packed!s:>7s} {decl!s:>9s}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import write_chrome_trace

    spec, _vm, result, telemetry = _run_instrumented(args)
    write_chrome_trace(
        telemetry, args.output, process_name=f"JxVM:{spec.name}"
    )
    print(f"{spec.name}: {telemetry.bus.total_emitted} events "
          f"({telemetry.bus.dropped} dropped) in "
          f"{result.wall_seconds:.3f}s -> {args.output}", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import format_opt_pass_report, format_text_report

    spec, vm, _result, telemetry = _run_instrumented(args)
    print(format_text_report(
        telemetry, title=f"JxVM telemetry: {spec.name}"
    ))
    stats = vm.mutation_stats
    print(f"osr          enters={stats.osr_enters} "
          f"deopts={stats.osr_deopts} "
          f"compile_failures={stats.osr_compile_failures}")
    # Same single-source-of-truth rule as the swap accounting: these
    # read the VMStats fields that the telemetry counters and the
    # ``tv_validated`` events bump in lockstep (three-way agreement is
    # test-pinned).
    print(f"lint/tv      {'on' if vm.config.tv else 'off'} "
          f"bodies_validated={stats.tv_bodies_validated} "
          f"findings={stats.tv_findings} "
          f"downgrades={stats.tv_downgrades} "
          f"seconds={vm.tv_seconds:.3f}")
    heap = vm.heap
    print(f"heap         objects={heap.objects_allocated} "
          f"modeled={heap.modeled_object_bytes()}B "
          f"declared={heap.declared_object_bytes}B "
          f"arrays={heap.array_bytes}B")
    budget = format_opt_pass_report(telemetry)
    if budget:
        print(budget)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import CompileCache

    directory = _cache_dir(args)
    if directory is None:
        print("jx cache: no cache directory (pass --cache-dir or set "
              "JX_CACHE_DIR)", file=sys.stderr)
        return 2
    cache = CompileCache(directory)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {directory}")
        return 0
    stats = cache.stats()
    print(f"cache dir    {stats['dir']}")
    print(f"entries      {stats['entries']} "
          f"({stats['bytes']} bytes in {stats['packs']} pack files; "
          f"{stats['stale_entries']} stale from other VM versions)")
    tiers = " ".join(
        f"{tier}={count}" for tier, count in sorted(
            stats["by_tier"].items()
        )
    ) or "-"
    print(f"by tier      {tiers}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import serve_workload

    report = serve_workload(
        args.workload,
        sessions=args.sessions,
        workers=args.workers,
        seed=args.seed,
        scale=args.scale,
        mutate=not args.no_mutate,
        cache=_cache_dir(args),
    )
    print(report.describe())
    for result in report.results:
        print(f"  session {result.session_id}: "
              f"{result.wall_seconds:.3f}s "
              f"{result.tib_swaps} swaps "
              f"digest {result.digest[:16]}"
              + (f"  ERROR {result.error}" if result.error else ""))
    if report.errors:
        print("jx serve: session errors", file=sys.stderr)
        return 1
    if not report.digests_identical:
        # Same-seed sessions diverging means tenant state leaked across
        # the shared code space — never acceptable.
        print("jx serve: DIGEST MISMATCH across sessions",
              file=sys.stderr)
        return 1
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.harness.tables import format_table1, table1

    print(format_table1(table1()))
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    from repro.harness import figures as F

    n = args.number
    if n == 9:
        print(F.format_rows("Figure 9: speedup", F.fig9_speedups()))
    elif n == 10:
        print(F.format_rows("Figure 10: code size increase",
                            F.fig10_code_size()))
    elif n == 11:
        print(F.format_rows("Figure 11: compile time increase",
                            F.fig11_compile_time(),
                            extra_keys=("compile_fraction_pct",)))
    elif n == 12:
        print(F.format_rows("Figure 12: TIB space increase (bytes)",
                            F.fig12_tib_space(), unit="B",
                            extra_keys=("relative_pct",)))
    elif n == 13:
        print(F.format_warehouses("Figure 13: JBB2000 warehouses",
                                  F.fig13_jbb2000_warehouses()))
    elif n == 14:
        print(F.format_warehouses("Figure 14: JBB2000 accelerated",
                                  F.fig14_jbb2000_accelerated()))
    elif n == 15:
        print(F.format_warehouses("Figure 15: JBB2005 warehouses",
                                  F.fig15_jbb2005_warehouses()))
    else:
        print(f"unknown figure {n}; available: 9-15", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="jx",
        description="JxVM: dynamic class hierarchy mutation reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cache_help = ("persistent compile-cache directory "
                  "(default: $JX_CACHE_DIR)")

    p = sub.add_parser("run", help="compile and run a Jx source file")
    p.add_argument("file")
    p.add_argument("--mutate", action="store_true",
                   help="run the offline pipeline and enable mutation")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--cache-dir", default=None, help=cache_help)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("disasm", help="disassemble a Jx source file")
    p.add_argument("file")
    p.add_argument("--quick", action="store_true",
                   help="run the program, then disassemble the "
                        "quickened bodies (superinstructions, packed "
                        "args, covered slots)")
    p.add_argument("--mutate", action="store_true",
                   help="with --quick: run under a mutation plan")
    p.set_defaults(fn=_cmd_disasm)

    p = sub.add_parser(
        "lint",
        help="statically verify mutation invariants (hook completeness, "
             "lifetime constants, quick-code hooks)",
    )
    p.add_argument("workloads", nargs="*",
                   help="workloads to lint (default: all)")
    p.add_argument("--file", default=None,
                   help="lint a Jx source file instead of workloads")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero if any finding is reported, or if "
                        "fewer bodies were validated than the target "
                        "has methods")
    p.add_argument("--tv", action="store_true",
                   help="also run the translation validator: prove "
                        "every transformed code surface (quickened "
                        "bodies, OSR entries) "
                        "equivalent to its pristine source, and print "
                        "the bodies validated per target")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("workloads", help="list benchmark workloads")
    p.set_defaults(fn=_cmd_workloads)

    p = sub.add_parser("plan", help="print a workload's mutation plan")
    p.add_argument("workload")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("compare", help="measure mutation on vs off")
    p.add_argument("workload")
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--no-telemetry", action="store_true",
                   help="skip the telemetry summary (slightly faster)")
    p.add_argument("--cache-dir", default=None, help=cache_help)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser(
        "trace",
        help="run a workload under telemetry, write Chrome-trace JSON",
    )
    p.add_argument("workload")
    p.add_argument("-o", "--output", default="trace.json")
    p.add_argument("--scale", type=float, default=None,
                   help="workload scale (default: the bench scale)")
    p.add_argument("--no-mutate", action="store_true",
                   help="run without a mutation plan")
    p.add_argument("--capacity", type=int, default=65536,
                   help="event ring-buffer capacity")
    p.add_argument("--cache-dir", default=None, help=cache_help)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "stats",
        help="run a workload under telemetry, print the metrics report",
    )
    p.add_argument("workload")
    p.add_argument("--scale", type=float, default=None,
                   help="workload scale (default: the bench scale)")
    p.add_argument("--no-mutate", action="store_true",
                   help="run without a mutation plan")
    p.add_argument("--capacity", type=int, default=65536,
                   help="event ring-buffer capacity")
    p.add_argument("--cache-dir", default=None, help=cache_help)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "heap",
        help="run a workload, print the modeled-heap report (packed vs "
             "declared bytes, top classes)",
    )
    p.add_argument("workload")
    p.add_argument("--scale", type=float, default=None,
                   help="workload scale (default: the bench scale)")
    p.add_argument("--no-mutate", action="store_true",
                   help="run without a mutation plan")
    p.add_argument("--top", type=int, default=10,
                   help="classes to list (default 10)")
    p.add_argument("--capacity", type=int, default=65536,
                   help="event ring-buffer capacity")
    p.add_argument("--cache-dir", default=None, help=cache_help)
    p.set_defaults(fn=_cmd_heap)

    p = sub.add_parser(
        "cache", help="inspect or clear the persistent compile cache"
    )
    p.add_argument("cache_command", choices=("stats", "clear"))
    p.add_argument("--cache-dir", default=None, help=cache_help)
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "serve",
        help="serve N concurrent sessions over one shared code space",
    )
    p.add_argument("workload")
    p.add_argument("--sessions", type=int, default=4)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--scale", type=float, default=None,
                   help="workload scale (default: bench scale)")
    p.add_argument("--no-mutate", action="store_true",
                   help="serve without a mutation plan")
    p.add_argument("--cache-dir", default=None, help=cache_help)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("fig", help="regenerate a figure (9-15)")
    p.add_argument("number", type=int)
    p.set_defaults(fn=_cmd_fig)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (VMRuntimeError, JxError, OSError, KeyError) as exc:
        # Workload/compile/IO failures exit nonzero (they used to be
        # unhandled or swallowed into exit code 0).
        print(f"jx: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
