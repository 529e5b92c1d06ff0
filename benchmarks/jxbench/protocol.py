"""What one jxbench run of one workload does.

Everything here goes through ``repro``'s public API only —
``compile_source``, ``VM`` / ``run`` / ``call_static``,
``build_mutation_plan``, ``CodeSpace`` / ``serve``, ``get_workload``
and the VM's public stats objects — never ``repro.harness``, so a change
to the harness cannot change what is measured.

A run builds the mutation plan once, then repeats a fixed protocol until
its time is up (:meth:`WorkloadRun.measure`).  Every operation's output
is checked against the reference engine's; an operation is one program
run, one jbb slice or one served session.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import resource
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

# Constructing a VM before repro.mutation is imported raises ImportError
# (the vm.shapes -> mutation -> manager -> opt -> pycodegen -> vm.shapes
# import cycle), so this import must come first.
import repro.mutation
import repro.lang
from repro import VM, AdaptiveConfig, VMConfig
from repro.server import CodeSpace, serve
from repro.workloads import get_workload

from jxtrace import PASSES, SpanRecorder, StackSampler


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a paper program at a fixed scale, run
    either as a program or served from a shared code space."""

    name: str
    #: Name in the ``repro.workloads`` registry.
    program: str
    scale: float
    #: Scale under ``--smoke``.
    smoke_scale: float
    serve: bool = False


#: The scales keep one reference-engine run near 2-3 s, so a seed with no
#: committed reference still fits the run budget; each run repeats its
#: protocol many times instead (see the README for why each is here).
WORKLOADS = {w.name: w for w in (
    Workload("salarydb", "salarydb", 1.0, 0.05),
    Workload("simlogic", "simlogic", 0.2, 0.02),
    Workload("csvtoxml", "csvtoxml", 0.25, 0.02),
    Workload("java2xhtml", "java2xhtml", 0.08, 0.01),
    Workload("weka", "weka", 0.3, 0.05),
    Workload("jbb2000", "jbb2000", 0.25, 0.02),
    Workload("jbb2005", "jbb2005", 0.2, 0.02),
    Workload("serve-jbb2000", "jbb2000", 0.2, 0.02, serve=True),
)}

#: Steady state runs on one VM per run that lives across repeats: it
#: runs ``main`` once and STEADY_WARMUP unsampled operations, then
#: STEADY_PER_REPEAT sampled operations per repeat.  For jbb an operation
#: is one ``runSlice`` and ``main`` already ran two, so sampling starts
#: at slice 5 (paper Figs. 13/15 call slices 4-8 steady).  For the other
#: programs it is a re-run of ``main``; the first re-run of a program
#: can be several times slower than the rest.
STEADY_PER_REPEAT = 2
STEADY_WARMUP = 2
#: Serving: closed loop, SESSIONS sessions per round on a WORKERS-thread
#: pool, SERVE_ROUNDS rounds on the cold code space.
SESSIONS = 4
WORKERS = 2
SERVE_ROUNDS = 2

#: The reference engine: no plan, no compiler, and every VM feature that
#: rewrites code switched off — the pristine bytecode interpreter.
REFERENCE_ENGINE = (
    "no plan; AdaptiveConfig(enabled=False, max_opt_level=0); "
    "VMConfig(quicken=False, osr=False, shapes=False, spec_share=False, "
    "memo=False, tv=False)"
)

#: Per-layer metrics taken from span self time (duration minus nested
#: spans), and the compile tiers taken inclusive (paper Fig. 11).
SELF_SPANS = {
    "lang.compile_source_s": "lang.compile_source",
    "vm.linker.link_s": "vm.linker.link",
    "vm.shapes.install_s": "vm.shapes.install",
    "mutation.attach_s": "mutation.attach",
    "bytecode.quicken_all_s": "bytecode.quicken_all",
    "vm.osr.entry_for_s": "vm.osr.entry_for",
    "cache.key_s": "cache.key_for",
    "cache.load_s": "cache.load",
    "cache.store_s": "cache.store",
    "opt.pycodegen_s": "opt.pycodegen",
    **{f"opt.pass.{name}_s": f"opt.pass.{name}" for name in PASSES},
}
TOTAL_SPANS = {
    "opt.compile_opt1_s": "opt.compile.opt1",
    "opt.compile_opt2_s": "opt.compile.opt2",
    "opt.compile_special_s": "opt.compile.special",
}


class _Node:
    __slots__ = ("value", "links")

    def __init__(self, value: int, links: list) -> None:
        self.value = value
        self.links = links

    def weight(self) -> int:
        return self.value + len(self.links)


def _probe_kernel() -> int:
    """Allocation-heavy Python — objects, lists, dicts, attribute and
    method access, the mix JxVM spends its time on — in benchmark code
    no change to ``repro`` can speed up.  Of the kernels tried, its
    slowdown under host contention tracked the workloads' best."""
    total = 0
    for i in range(3000):
        total += _Node(i, [i, {"k": i}]).weight()
    return total


#: Seconds :func:`probe` reads on an uncontended core of the machine the
#: committed baseline ran on (2-vCPU Xeon, Python 3.11).
PROBE_NOMINAL_S = 0.0012


def probe() -> float:
    """How long the probe kernel takes on this CPU right now (best of 2)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Sample(NamedTuple):
    """One timing, calibrated and as wall time."""

    calibrated: float
    wall: float

    def rate(self, work: float) -> "Sample":
        """``work`` per second of this timing."""
        return Sample(work / self.calibrated, work / self.wall)

    def part(self, seconds: float) -> "Sample":
        """A wall-clock share of this timing, calibrated alike."""
        return Sample(seconds * self.calibrated / self.wall, seconds)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compile_program(spec: Any, scale: float) -> Any:
    # Looked up on the module at call time so the trace wrapper sees it.
    return repro.lang.compile_source(
        spec.source(scale),
        filename=f"<{spec.name}>",
        entry_class=spec.entry_class,
        entry_method=spec.entry_method,
    )


def reference_run(program: str, scale: float, seed: int) -> dict:
    """Output digest (and, for jbb, one slice's transaction count) of
    ``program`` on :data:`REFERENCE_ENGINE`."""
    spec = get_workload(program)
    vm = VM(
        compile_program(spec, scale),
        seed=seed,
        adaptive_config=AdaptiveConfig(enabled=False, max_opt_level=0),
        config=VMConfig(quicken=False, osr=False, shapes=False,
                        spec_share=False, memo=False, tv=False),
    )
    digest = sha256(vm.run().output)
    slice_tx = None
    if spec.slice_method:
        slice_tx = vm.call_static(spec.entry_class, spec.slice_method, [])
    return {"digest": digest, "slice_tx": slice_tx}


def summarize(values: list[float], raw: list[float] | None = None) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count; for
    timings, also the median of the uncalibrated wall times."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    out = {"value": median, "q1": q1, "q3": q3, "n": len(values),
           "samples": list(values)}
    if raw:
        out["wall_value"] = statistics.median(raw)
    return out


def vm_counts(vm: Any) -> dict[str, float]:
    """Per-layer counts from a VM's public stats objects."""
    stats, compiles, heap = vm.mutation_stats, vm.compile_stats, vm.heap
    events = compiles.events
    return {
        "opt.code_bytes_opt1": sum(
            e.code_size_bytes for e in events if e.opt_level == 1),
        "opt.code_bytes_opt2": sum(
            e.code_size_bytes for e in events if e.opt_level == 2),
        "opt.code_bytes_special": compiles.special_code_bytes,
        "vm.adaptive.promotions_opt1": sum(
            1 for e in events if e.opt_level == 1),
        "vm.adaptive.promotions_opt2": sum(
            1 for e in events if e.opt_level == 2),
        "mutation.tib_swaps": stats.tib_swaps,
        "mutation.swaps_coalesced": stats.swaps_coalesced,
        "mutation.specials_compiled": stats.specials_compiled,
        "mutation.specials_shared": stats.specials_shared,
        "mutation.special_tibs": stats.special_tibs_created,
        "mutation.special_tib_bytes": vm.tib_space.special_tib_bytes,
        "mutation.plans_downgraded": stats.plans_downgraded,
        "mutation.fig12_tib_frac": vm.tib_space.relative_increase(),
        "vm.shapes.transitions": heap.shape_transitions,
        "vm.heap.modeled_bytes": heap.modeled_object_bytes(),
        "vm.heap.declared_bytes": heap.declared_object_bytes,
        "vm.osr.enters": stats.osr_enters,
        "vm.osr.deopts": stats.osr_deopts,
        "vm.memo.hits": vm.memo.hits,
        "vm.memo.fills": vm.memo.fills,
        "analysis.tv_bodies": stats.tv_bodies_validated,
        "analysis.tv_downgrades": stats.tv_downgrades,
    }


def _ratio(num: float, den: float) -> float:
    return num / den - 1.0 if den else 0.0


class WorkloadRun:
    """One workload measured at one seed: samples, op counts, failures.

    Every timing is a :class:`Sample`: wall seconds, and *calibrated*
    seconds — scaled by ``PROBE_NOMINAL_S / probe()`` with :func:`probe`
    read just before and just after the timed region.  On a shared
    2-vCPU VM, neighbouring tenants slow a vCPU by up to 2x for seconds
    at a time; the probe slows with it, so calibrated seconds track the work and not
    the neighbours.
    """

    def __init__(self, workload: Workload, scale: float, seed: int,
                 reference: dict, workdir: str) -> None:
        self.workload = workload
        self.spec = get_workload(workload.program)
        self.scale = scale
        self.seed = seed
        self.digest = reference["digest"]
        self.slice_tx = reference["slice_tx"]
        self.workdir = workdir
        #: End-to-end samples; traced runs also keep the untraced and
        #: traced run times here.
        self.samples: dict[str, list[Sample]] = defaultdict(list)
        #: Per-layer values, one per traced repeat.
        self.layer: dict[str, list[float]] = defaultdict(list)
        #: Every probe reading, in seconds.
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.repeats = 0
        self.plan: Any = None
        self.plan_s = 0.0
        self.recorder: SpanRecorder | None = None
        self.sampler: StackSampler | None = None
        #: Steady-state VMs by name, past their warm-up.
        self._steady: dict[str, Any] = {}

    # -- operations ----------------------------------------------------------

    def _fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {why}")

    def _output_ok(self, what: str, output: str) -> bool:
        if sha256(output) == self.digest:
            return True
        self._fail(what, "output differs from the reference")
        return False

    def _window(self, traced: bool) -> Any:
        return self.sampler.window() if traced else contextlib.nullcontext()

    def _timed(self, fn: Callable[[], Any],
               traced: bool = False) -> tuple[Any, Sample]:
        """``fn()`` and its timing."""
        gc.collect()
        before = probe()
        with self._window(traced):
            start = time.perf_counter()
            value = fn()
            seconds = time.perf_counter() - start
        after = probe()
        self.probes += (before, after)
        speed = PROBE_NOMINAL_S / ((before + after) / 2)
        return value, Sample(seconds * speed, seconds)

    def _cache_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.workdir)

    def _construct(self, plan: Any, cache: str | None,
                   traced: bool = False) -> tuple[Any, Sample]:
        """``compile_source`` + ``VM(...)``: the set-up paid per VM."""
        return self._timed(
            lambda: VM(compile_program(self.spec, self.scale),
                       mutation_plan=plan, compile_cache=cache,
                       seed=self.seed),
            traced)

    def fresh_run(self, what: str, plan: Any, cache: str | None,
                  traced: bool = False) -> tuple | None:
        """Construct a VM and run the program once (one op).  Returns
        ``(vm, setup, run)`` with both timings as :class:`Sample`, or
        ``None`` when the op failed."""
        self.attempted += 1
        try:
            vm, setup = self._construct(plan, cache, traced)
            result, run = self._timed(vm.run, traced)
        except Exception as exc:  # a failed op is counted, not fatal
            self._fail(what, f"{type(exc).__name__}: {exc}")
            return None
        if not self._output_ok(what, result.output):
            return None
        return vm, setup, run

    def _steady_op(self, vm: Any, what: str) -> Sample | None:
        """One operation on a VM that has done its first run; returns its
        work per second: transactions for a jbb slice, one program run
        otherwise."""
        entry = self.spec.entry_class
        method = self.spec.slice_method or self.spec.entry_method
        self.attempted += 1
        before = len(vm.output)
        try:
            done, timing = self._timed(
                lambda: vm.call_static(entry, method, []))
        except Exception as exc:
            self._fail(what, f"{type(exc).__name__}: {exc}")
            return None
        if self.spec.slice_method:
            if done != self.slice_tx:
                self._fail(what, f"slice returned {done}, "
                                 f"expected {self.slice_tx}")
                return None
        elif not self._output_ok(what, vm.output[before:]):
            return None
        else:
            done = 1
        return timing.rate(done)

    def steady_rates(self, what: str, plan: Any) -> list[Sample]:
        """:data:`STEADY_PER_REPEAT` more operations on this run's
        persistent ``what`` VM; returns their rates.  The VM is built on
        first use: one first run, then :data:`STEADY_WARMUP` unsampled
        operations (all counted as ops)."""
        vm = self._steady.get(what)
        if vm is None:
            first = self.fresh_run(f"{what} first run", plan, None)
            if first is None:
                return []
            vm = first[0]
            for _ in range(STEADY_WARMUP):
                if self._steady_op(vm, what) is None:
                    return []
            self._steady[what] = vm
        rates = []
        for _ in range(STEADY_PER_REPEAT):
            rate = self._steady_op(vm, what)
            if rate is None:
                del self._steady[what]  # start over on a fresh VM
                break
            rates.append(rate)
        return rates

    def build_space(self, what: str, plan: Any, cache: str | None,
                    traced: bool = False) -> tuple | None:
        """Build a :class:`CodeSpace` (one op: its warm-up run's output
        is checked).  Returns ``(space, build)`` or ``None``."""
        self.attempted += 1
        try:
            space, build = self._timed(
                lambda: CodeSpace(compile_program(self.spec, self.scale),
                                  mutation_plan=plan, compile_cache=cache,
                                  warmup_seed=self.seed),
                traced)
        except Exception as exc:
            self._fail(what, f"{type(exc).__name__}: {exc}")
            return None
        if not self._output_ok(what, space.warmup_output):
            return None
        return space, build

    def serve_rounds(self, what: str, space: Any, rounds: int,
                     traced: bool = False) -> tuple[list, list]:
        """Closed-loop serving.  Returns the latencies, session creation
        included, of the sessions whose output checked, and per round
        those sessions per second of pool time."""
        latencies: list[Sample] = []
        rates: list[Sample] = []
        for _ in range(rounds):
            report, timing = self._timed(
                lambda: serve(space, sessions=SESSIONS, workers=WORKERS,
                              seed=self.seed, workload=self.workload.name),
                traced)
            done = 0
            for result in report.results:
                self.attempted += 1
                if result.error:
                    self._fail(what, result.error)
                elif self._output_ok(what, result.output):
                    latencies.append(timing.part(result.wall_seconds))
                    done += 1
            rates.append(timing.rate(done))
        return latencies, rates

    # -- untraced repeats ----------------------------------------------------

    def program_repeat(self) -> None:
        s = self.samples
        cache = self._cache_dir()
        cold = self.fresh_run("cold run", self.plan, cache)
        if cold:
            vm, setup, run = cold
            s["setup_s"].append(setup)
            s["run_s"].append(run)
            code = vm.compile_stats.total_code_bytes
            s["code_bytes"].append(Sample(code, code))
        cold = vm = None  # free the heap before the next VM
        warm = self.fresh_run("warm run", self.plan, cache)
        if warm:
            s["setup_s"].append(warm[1])
            s["warm_run_s"].append(warm[2])
        warm = None
        nomut = self.fresh_run("no-plan run", None, None)
        if nomut:
            s["nomut_run_s"].append(nomut[2])
        nomut = None
        shutil.rmtree(cache)
        s["steady_ops_per_s"].extend(self.steady_rates("steady", self.plan))

    def serve_repeat(self) -> None:
        s = self.samples
        cache = self._cache_dir()
        cold = self.build_space("cold code space", self.plan, cache)
        if cold:
            space, build = cold
            s["setup_s"].append(build)
            code = space.vm.compile_stats.total_code_bytes
            s["code_bytes"].append(Sample(code, code))
            latencies, rates = self.serve_rounds("session", space,
                                                 SERVE_ROUNDS)
            s["run_s"].extend(latencies)
            s["steady_ops_per_s"].extend(rates)
        cold = space = None
        # Serving's warm-start path is the code-space build itself.
        warm = self.build_space("warm code space", self.plan, cache)
        if warm:
            s["warm_run_s"].append(warm[1])
        warm = None
        nomut = self.build_space("no-plan code space", None, None)
        if nomut:
            latencies, _ = self.serve_rounds("no-plan session", nomut[0], 1)
            s["nomut_run_s"].extend(latencies)
        nomut = None
        shutil.rmtree(cache)

    # -- traced repeats ------------------------------------------------------

    def _record_traced(self, first_span: int, tv_s: float,
                       hit_rate: float) -> None:
        spans = self.recorder.summary(first_span)
        layer = self.layer
        for metric, name in SELF_SPANS.items():
            layer[metric].append(spans.get(name, {}).get("self_s", 0.0))
        for metric, name in TOTAL_SPANS.items():
            layer[metric].append(spans.get(name, {}).get("total_s", 0.0))
        layer["opt.compile_calls"].append(sum(
            spans.get(name, {}).get("count", 0)
            for name in TOTAL_SPANS.values()))
        layer["analysis.tv_s"].append(tv_s)
        layer["cache.hit_rate"].append(hit_rate)

    def _record_on_off(self, on_vm: Any, off_vm: Any) -> None:
        for name, value in vm_counts(on_vm).items():
            self.layer[name].append(value)
        self.layer["mutation.fig10_code_growth"].append(_ratio(
            on_vm.compile_stats.total_code_bytes,
            off_vm.compile_stats.total_code_bytes))
        self.layer["mutation.fig11_compile_growth"].append(_ratio(
            on_vm.compile_stats.total_seconds,
            off_vm.compile_stats.total_seconds))

    def program_trace_repeat(self) -> None:
        s = self.samples
        cache = self._cache_dir()
        on = self.fresh_run("cold run", self.plan, cache)
        off = self.fresh_run("no-plan run", None, None)
        if on and off:
            s["run_s"].append(on[2])
            s["nomut_run_s"].append(off[2])
            self._record_on_off(on[0], off[0])
        on = off = None
        s["steady_ops_per_s"].extend(self.steady_rates("steady", self.plan))
        s["nomut_steady_ops_per_s"].extend(
            self.steady_rates("no-plan steady", None))
        shutil.rmtree(cache)
        cache = self._cache_dir()
        first = len(self.recorder.spans)
        tv_s = 0.0
        with self.recorder.installed():
            cold = self.fresh_run("traced cold run", self.plan, cache,
                                  traced=True)
            if cold:
                s["traced_run_s"].append(cold[2])
                tv_s = cold[0].tv_seconds
            cold = None
            warm = self.fresh_run("traced warm run", self.plan, cache,
                                  traced=True)
        if warm:
            self._record_traced(first, tv_s + warm[0].tv_seconds,
                                warm[0].compile_cache.hit_rate)
        shutil.rmtree(cache)

    def serve_trace_repeat(self) -> None:
        s = self.samples
        cache = self._cache_dir()
        on = self.build_space("cold code space", self.plan, cache)
        off = self.build_space("no-plan code space", None, None)
        if on and off:
            lat_on, rates_on = self.serve_rounds("session", on[0],
                                                 SERVE_ROUNDS)
            lat_off, rates_off = self.serve_rounds("no-plan session", off[0],
                                                   SERVE_ROUNDS)
            s["run_s"].extend(lat_on)
            s["nomut_run_s"].extend(lat_off)
            s["steady_ops_per_s"].extend(rates_on)
            s["nomut_steady_ops_per_s"].extend(rates_off)
            self._record_on_off(on[0].vm, off[0].vm)
        on = off = None
        shutil.rmtree(cache)
        cache = self._cache_dir()
        first = len(self.recorder.spans)
        tv_s = 0.0
        with self.recorder.installed():
            cold = self.build_space("traced cold code space", self.plan,
                                    cache, traced=True)
            if cold:
                latencies, _ = self.serve_rounds("traced session", cold[0],
                                                 1, traced=True)
                s["traced_run_s"].extend(latencies)
                tv_s = cold[0].vm.tv_seconds
            cold = None
            warm = self.build_space("traced warm code space", self.plan,
                                    cache, traced=True)
        if warm:
            vm = warm[0].vm
            self._record_traced(first, tv_s + vm.tv_seconds,
                                vm.compile_cache.hit_rate)
        shutil.rmtree(cache)

    # -- the run -------------------------------------------------------------

    def prepare(self) -> None:
        """Build the mutation plan (the paper's offline step)."""
        start = time.perf_counter()
        self.plan = repro.mutation.build_mutation_plan(
            self.spec.profile_source(),
            entry_class=self.spec.entry_class,
            entry_method=self.spec.entry_method,
            seed=self.seed,
        )
        self.plan_s = time.perf_counter() - start

    def measure(self, seconds: float, min_repeats: int, traced: bool) -> None:
        """Repeat the protocol until the next repeat would overrun
        ``seconds`` (but at least ``min_repeats`` times).

        Runs on one CPU (threads started from here inherit it), so no
        timing migrates between vCPUs that are contended differently."""
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        if traced:
            repeat = (self.serve_trace_repeat if self.workload.serve
                      else self.program_trace_repeat)
            self.recorder = SpanRecorder()
            with StackSampler() as self.sampler:
                self._loop(repeat, seconds, min_repeats)
        else:
            repeat = (self.serve_repeat if self.workload.serve
                      else self.program_repeat)
            self._loop(repeat, seconds, min_repeats)

    def _loop(self, repeat: Callable[[], None], seconds: float,
              min_repeats: int) -> None:
        start = time.perf_counter()
        longest = 0.0
        while True:
            began = time.perf_counter()
            repeat()
            self.repeats += 1
            now = time.perf_counter()
            longest = max(longest, now - began)
            if (self.repeats >= min_repeats
                    and now - start + longest > seconds):
                return

    # -- results -------------------------------------------------------------

    def _median(self, name: str) -> float:
        return statistics.median(x.calibrated for x in self.samples[name])

    def end_to_end(self) -> dict[str, dict]:
        out = {}
        for name, samples in self.samples.items():
            if samples:
                raw = (None if name == "code_bytes"
                       else [x.wall for x in samples])
                out[name] = summarize([x.calibrated for x in samples], raw)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mb"] = summarize([peak_kib / 1024.0])
        return out

    def per_layer(self) -> dict[str, float]:
        out = {name: statistics.median(values)
               for name, values in self.layer.items() if values}
        out.update(self.sampler.fractions())
        out["trace.samples"] = self.sampler.samples
        s = self.samples
        if s["run_s"] and s["traced_run_s"]:
            out["trace.overhead"] = _ratio(self._median("traced_run_s"),
                                           self._median("run_s"))
        if s["run_s"] and s["nomut_run_s"]:
            out["mutation.fig9_speedup"] = _ratio(self._median("nomut_run_s"),
                                                  self._median("run_s"))
        if s["steady_ops_per_s"] and s["nomut_steady_ops_per_s"]:
            out["mutation.fig13_steady_delta"] = _ratio(
                self._median("steady_ops_per_s"),
                self._median("nomut_steady_ops_per_s"))
        out["mutation.plan_s"] = self.plan_s
        return out

    def probe_summary(self) -> dict:
        """How contended the CPU was: probe seconds over the run."""
        return summarize(self.probes) if self.probes else {}
