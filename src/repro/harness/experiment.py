"""Experiment driver: run workloads with and without mutation.

The measurement protocol follows the paper's §6: multiple runs, best
repeatable result reported; mutation-on and mutation-off runs use
identical adaptive-system settings so the only difference is the
mutation plan.  For the SPECjbb experiments the VM persists across
warehouse slices, so compilation and mutation effects play out over
time exactly as in Figures 13–15.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.lang import compile_source
from repro.mutation import MutationConfig, MutationPlan, build_mutation_plan
from repro.vm.adaptive import AdaptiveConfig
from repro.vm.runtime import VM
from repro.workloads.registry import WorkloadSpec


@dataclass
class Measurement:
    """One measured run (best wall time over repeats; stats from the
    last VM)."""

    workload: str
    mutated: bool
    wall_seconds: float
    compile_seconds: float
    opt_code_bytes: int
    special_code_bytes: int
    special_compile_seconds: float
    class_tib_bytes: int
    special_tib_bytes: int
    #: From ``vm.mutation_stats`` — the same counters telemetry mirrors,
    #: so ``jx compare`` and ``jx stats`` agree.
    tib_swaps: int
    special_versions: int
    output: str
    objects_allocated: int = 0
    #: Modeled object volume (width-packed charges) and the
    #: declared-field baseline the packing is measured against.
    modeled_heap_bytes: int = 0
    declared_heap_bytes: int = 0
    #: Telemetry summary (counters/gauges/histograms/events) of the
    #: best run's VM, when the run was telemetry-instrumented.
    telemetry_report: dict | None = None
    #: Compile-cache session counters, aggregated over every VM this
    #: measurement created (zero when no cache was attached).
    cache_hits: int = 0
    cache_misses: int = 0
    #: First-repeat vs last-repeat compile seconds: with a shared cache
    #: the first VM populates and later VMs warm-start, so these are the
    #: cold and warm compile costs of the same workload.
    cold_compile_seconds: float = 0.0
    warm_compile_seconds: float = 0.0
    #: The last VM's compile events, and how many of them it linked
    #: from the compile cache (all of them on a fully warm start).
    compile_events: int = 0
    cached_methods: int = 0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return (self.cache_hits / lookups) if lookups else 0.0

    @property
    def compile_fraction(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.compile_seconds / self.wall_seconds


def _adaptive_config(
    plan: MutationPlan | None, accelerated: bool
) -> AdaptiveConfig:
    accel: frozenset[str] = frozenset()
    if accelerated and plan is not None:
        names = []
        for class_plan in plan.classes.values():
            for key in class_plan.mutable_methods:
                names.append(f"{class_plan.class_name}.{key}")
        accel = frozenset(names)
    return AdaptiveConfig(accelerated=accel)


def _as_cache(cache: Any) -> Any:
    """Normalize a cache argument (CompileCache | directory | None) to a
    single shared CompileCache instance, so session counters aggregate
    across every VM of one measurement."""
    if cache is None or not isinstance(cache, (str, Path)):
        return cache
    from repro.cache import CompileCache

    return CompileCache(cache)


def run_workload(
    spec: WorkloadSpec,
    plan: MutationPlan | None = None,
    repeats: int = 2,
    accelerated: bool = False,
    seed: int = 42,
    scale: float | None = None,
    telemetry: bool = False,
    cache: Any = None,
) -> Measurement:
    """Run one workload configuration; returns the best-of-N measurement.

    ``telemetry=True`` attaches a fresh :class:`~repro.telemetry.Telemetry`
    to every VM and reports the last run's summary — instrumented runs
    carry a small overhead, so compare only like against like.

    ``cache`` (a :class:`~repro.cache.CompileCache` or a directory)
    attaches the persistent compile cache to every VM: the first repeat
    populates it, later repeats warm-start.
    """
    source = spec.source(scale if scale is not None else spec.bench_scale)
    cache = _as_cache(cache)
    best_wall = float("inf")
    vm: VM | None = None
    output = ""
    cold_compile = warm_compile = 0.0
    for index in range(max(1, repeats)):
        unit = compile_source(
            source,
            filename=f"<{spec.name}>",
            entry_class=spec.entry_class,
            entry_method=spec.entry_method,
        )
        vm = VM(
            unit,
            mutation_plan=plan,
            adaptive_config=_adaptive_config(plan, accelerated),
            seed=seed,
            telemetry=telemetry or None,
            compile_cache=cache,
        )
        result = vm.run()
        output = result.output
        best_wall = min(best_wall, result.wall_seconds)
        if index == 0:
            cold_compile = vm.compile_stats.total_seconds
        warm_compile = vm.compile_stats.total_seconds
    assert vm is not None
    stats = vm.compile_stats
    report = vm.telemetry.summary() if vm.telemetry is not None else None
    return Measurement(
        workload=spec.name,
        mutated=plan is not None,
        wall_seconds=best_wall,
        compile_seconds=stats.total_seconds,
        opt_code_bytes=stats.total_code_bytes,
        special_code_bytes=stats.special_code_bytes,
        special_compile_seconds=stats.special_seconds,
        class_tib_bytes=vm.tib_space.class_tib_bytes,
        special_tib_bytes=vm.tib_space.special_tib_bytes,
        tib_swaps=vm.mutation_stats.tib_swaps,
        special_versions=vm.mutation_stats.specials_compiled,
        output=output,
        objects_allocated=vm.heap.objects_allocated,
        modeled_heap_bytes=vm.heap.modeled_object_bytes(),
        declared_heap_bytes=vm.heap.declared_object_bytes,
        telemetry_report=report,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        cold_compile_seconds=cold_compile,
        warm_compile_seconds=warm_compile,
        compile_events=len(stats.events),
        cached_methods=stats.cached_methods,
    )


def telemetry_compile_summary(report: dict | None) -> dict:
    """Flatten a Measurement's telemetry report into the handful of
    numbers the mutation-on/off comparison cares about: compile seconds
    by tier and the swap/hook/special counters."""
    out: dict = {
        "compile_seconds_total": 0.0,
        "compile_seconds_by_tier": {},
        "tib_swaps": 0,
        "deopt_swaps": 0,
        "hooks_fired": 0,
        "specials_compiled": 0,
    }
    if not report:
        return out
    for name, hist in report.get("histograms", {}).items():
        if name.startswith("compile.seconds."):
            tier = name.rsplit(".", 1)[1]
            out["compile_seconds_by_tier"][tier] = hist["sum"]
            out["compile_seconds_total"] += hist["sum"]
    counters = report.get("counters", {})
    # mutation.tib_swap counts every swap (deopt_to_class_tib is the
    # swap-back subset), matching Measurement.tib_swaps exactly.
    out["tib_swaps"] = counters.get("mutation.tib_swap", 0)
    out["deopt_swaps"] = counters.get("mutation.deopt_to_class_tib", 0)
    out["hooks_fired"] = counters.get("mutation.hooks_fired", 0)
    out["specials_compiled"] = counters.get(
        "mutation.specials_compiled", 0
    )
    return out


@dataclass
class Comparison:
    """Mutation-on vs mutation-off for one workload."""

    workload: str
    baseline: Measurement
    mutated: Measurement
    plan: MutationPlan

    @property
    def speedup(self) -> float:
        """Fractional speedup: time_off / time_on - 1."""
        if self.mutated.wall_seconds <= 0:
            return 0.0
        return self.baseline.wall_seconds / self.mutated.wall_seconds - 1.0

    @property
    def code_size_increase(self) -> float:
        base = self.baseline.opt_code_bytes
        if base <= 0:
            return 0.0
        return (self.mutated.opt_code_bytes - base) / base

    @property
    def compile_time_increase(self) -> float:
        base = self.baseline.compile_seconds
        if base <= 0:
            return 0.0
        return (self.mutated.compile_seconds - base) / base

    @property
    def tib_space_increase_bytes(self) -> int:
        return self.mutated.special_tib_bytes

    @property
    def tib_space_increase_relative(self) -> float:
        base = self.mutated.class_tib_bytes
        if base <= 0:
            return 0.0
        return self.mutated.special_tib_bytes / base

    @property
    def outputs_match(self) -> bool:
        return self.baseline.output == self.mutated.output


def compare_workload(
    spec: WorkloadSpec,
    config: MutationConfig | None = None,
    repeats: int = 2,
    seed: int = 42,
    plan: MutationPlan | None = None,
    telemetry: bool = False,
    cache: Any = None,
) -> Comparison:
    """Full offline pipeline + measured on/off comparison.

    Baseline and mutated runs are interleaved so machine-load drift
    affects both sides equally; best-of-N is kept per side (the paper's
    "best repeatable result" protocol, §6).  With ``cache`` (a
    :class:`~repro.cache.CompileCache` or directory), every VM of both
    sides shares one compile cache: the first repeat runs cold and the
    rest warm-start, and the per-side Measurements carry hit counts and
    cold/warm compile seconds.
    """
    if plan is None:
        plan = build_mutation_plan(
            spec.profile_source(),
            entry_class=spec.entry_class,
            entry_method=spec.entry_method,
            config=config,
            seed=seed,
        )
    cache = _as_cache(cache)
    baseline: Measurement | None = None
    mutated: Measurement | None = None
    base_cold = mut_cold = base_warm = mut_warm = 0.0
    base_hits = base_misses = mut_hits = mut_misses = 0
    for index in range(max(1, repeats)):
        # The shared cache's session counters are zeroed before each
        # side so each Measurement reports its own lookups only.
        if cache is not None:
            cache.hits = cache.misses = 0
        b = run_workload(spec, None, repeats=1, seed=seed,
                         telemetry=telemetry, cache=cache)
        if cache is not None:
            cache.hits = cache.misses = 0
        m = run_workload(spec, plan, repeats=1, seed=seed,
                         telemetry=telemetry, cache=cache)
        if cache is not None:
            if index == 0:
                base_cold = b.cold_compile_seconds
                mut_cold = m.cold_compile_seconds
            base_hits += b.cache_hits
            base_misses += b.cache_misses
            mut_hits += m.cache_hits
            mut_misses += m.cache_misses
            base_warm = b.warm_compile_seconds
            mut_warm = m.warm_compile_seconds
        if baseline is None or b.wall_seconds < baseline.wall_seconds:
            baseline = b
        if mutated is None or m.wall_seconds < mutated.wall_seconds:
            mutated = m
    assert baseline is not None and mutated is not None
    if cache is not None:
        baseline.cache_hits, baseline.cache_misses = base_hits, base_misses
        mutated.cache_hits, mutated.cache_misses = mut_hits, mut_misses
        baseline.cold_compile_seconds = base_cold
        mutated.cold_compile_seconds = mut_cold
        baseline.warm_compile_seconds = base_warm
        mutated.warm_compile_seconds = mut_warm
    return Comparison(
        workload=spec.name, baseline=baseline, mutated=mutated, plan=plan
    )


# ---------------------------------------------------------------------------
# Warehouse-over-time experiments (Figures 13-15)
# ---------------------------------------------------------------------------

@dataclass
class WarehouseSeries:
    """Per-warehouse throughput for one VM configuration."""

    workload: str
    mutated: bool
    accelerated: bool
    throughputs: list[float] = field(default_factory=list)  # tx/second
    transactions: list[int] = field(default_factory=list)


def run_warehouses(
    spec: WorkloadSpec,
    plan: MutationPlan | None,
    num_warehouses: int = 8,
    accelerated: bool = False,
    seed: int = 42,
    scale: float | None = None,
) -> WarehouseSeries:
    """Run ``num_warehouses`` sequential slices on one persistent VM,
    timing each — the paper's "one warehouse is run eight times"."""
    if spec.slice_method is None:
        raise ValueError(f"workload {spec.name} has no slice entry")
    source = spec.source(scale if scale is not None else spec.bench_scale)
    unit = compile_source(
        source, filename=f"<{spec.name}>", entry_class=spec.entry_class
    )
    vm = VM(
        unit,
        mutation_plan=plan,
        adaptive_config=_adaptive_config(plan, accelerated),
        seed=seed,
    )
    series = WarehouseSeries(
        workload=spec.name, mutated=plan is not None, accelerated=accelerated
    )
    for _ in range(num_warehouses):
        start = time.perf_counter()
        done = vm.call_static(spec.entry_class, spec.slice_method, [])
        elapsed = time.perf_counter() - start
        series.transactions.append(int(done))
        series.throughputs.append(done / elapsed if elapsed > 0 else 0.0)
    return series


@dataclass
class WarehouseComparison:
    """Relative throughput change per warehouse, mutation vs. not."""

    workload: str
    accelerated: bool
    baseline: WarehouseSeries
    mutated: WarehouseSeries
    #: Per-repeat samples: [warehouse][repeat] throughput.
    base_samples: list[list[float]] = field(default_factory=list)
    mut_samples: list[list[float]] = field(default_factory=list)

    @property
    def deltas(self) -> list[float]:
        """Per-warehouse relative change: median of per-repeat-pair
        deltas (each pair ran back-to-back, so drift cancels)."""
        if self.base_samples and self.mut_samples:
            out = []
            for base_row, mut_row in zip(self.base_samples,
                                         self.mut_samples):
                pair_deltas = sorted(
                    (m / b - 1.0) if b > 0 else 0.0
                    for b, m in zip(base_row, mut_row)
                )
                out.append(pair_deltas[len(pair_deltas) // 2])
            return out
        return [
            (m / b - 1.0) if b > 0 else 0.0
            for b, m in zip(
                self.baseline.throughputs, self.mutated.throughputs
            )
        ]

    def steady_state_delta(self, warmup: int = 3) -> float:
        """Mean per-warehouse delta after the warm-up window — the
        paper's steady-state-warehouse performance metric (§7.1)."""
        tail = self.deltas[warmup:]
        return sum(tail) / len(tail) if tail else 0.0


def compare_warehouses(
    spec: WorkloadSpec,
    config: MutationConfig | None = None,
    num_warehouses: int = 8,
    accelerated: bool = False,
    seed: int = 42,
    plan: MutationPlan | None = None,
    scale: float | None = None,
    repeats: int = 3,
) -> WarehouseComparison:
    """Interleaved warehouse measurement.

    Both VMs persist for the whole sequence (warm-up effects play out
    exactly as in the paper's Figures 13–15) and are advanced in
    lockstep: for each warehouse index the baseline slice and the
    mutated slice run back-to-back, so slow machine-load drift cancels
    out of the per-warehouse delta.  The whole 8-warehouse experiment is
    repeated ``repeats`` times with fresh VM pairs and the median
    throughput per warehouse index is reported.
    """
    if plan is None:
        plan = build_mutation_plan(
            spec.profile_source(),
            entry_class=spec.entry_class,
            entry_method=spec.entry_method,
            config=config,
            seed=seed,
        )
    if spec.slice_method is None:
        raise ValueError(f"workload {spec.name} has no slice entry")
    source = spec.source(scale if scale is not None else spec.bench_scale)

    base_samples: list[list[float]] = [[] for _ in range(num_warehouses)]
    mut_samples: list[list[float]] = [[] for _ in range(num_warehouses)]
    base_tx = [0] * num_warehouses
    mut_tx = [0] * num_warehouses
    for _ in range(max(1, repeats)):
        base_unit = compile_source(source, entry_class=spec.entry_class)
        mut_unit = compile_source(source, entry_class=spec.entry_class)
        base_vm = VM(base_unit, seed=seed)
        mut_vm = VM(
            mut_unit,
            mutation_plan=plan,
            adaptive_config=_adaptive_config(plan, accelerated),
            seed=seed,
        )
        for wh in range(num_warehouses):
            start = time.perf_counter()
            done_b = base_vm.call_static(
                spec.entry_class, spec.slice_method, []
            )
            elapsed_b = time.perf_counter() - start
            start = time.perf_counter()
            done_m = mut_vm.call_static(
                spec.entry_class, spec.slice_method, []
            )
            elapsed_m = time.perf_counter() - start
            base_samples[wh].append(done_b / elapsed_b)
            mut_samples[wh].append(done_m / elapsed_m)
            base_tx[wh] = int(done_b)
            mut_tx[wh] = int(done_m)

    def median(values: list[float]) -> float:
        ordered = sorted(values)
        return ordered[len(ordered) // 2]

    baseline = WarehouseSeries(
        workload=spec.name,
        mutated=False,
        accelerated=False,
        throughputs=[median(s) for s in base_samples],
        transactions=base_tx,
    )
    mutated = WarehouseSeries(
        workload=spec.name,
        mutated=True,
        accelerated=accelerated,
        throughputs=[median(s) for s in mut_samples],
        transactions=mut_tx,
    )
    return WarehouseComparison(
        workload=spec.name,
        accelerated=accelerated,
        baseline=baseline,
        mutated=mutated,
        base_samples=base_samples,
        mut_samples=mut_samples,
    )
