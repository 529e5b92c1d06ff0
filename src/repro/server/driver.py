"""The serve harness: N concurrent workload sessions, one code space.

This is the ROADMAP's "millions of users" scenario scaled to a test
bench: build the program world once, then drive many tenants over it
from a thread pool.  Each session gets a private heap/statics/stats
layer (:class:`repro.server.Session`), runs the workload entry point,
and reports its output digest; the driver aggregates throughput and
latency and asserts nothing leaked between tenants (same-seed sessions
must produce byte-identical digests).

Telemetry (attached to the code space):

* ``server.sessions`` — sessions completed;
* ``server.session_seconds`` — per-session latency distribution;
* ``server.codespace_hits`` — sessions served from the shared space;
* ``cache.lock_wait_seconds`` — compile-cache key-lock contention
  (emitted by the opt pipeline during warmup; zero once frozen).
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.lang import compile_source
from repro.server.codespace import CodeSpace
from repro.server.results import ServeReport, SessionResult, output_digest
from repro.telemetry.core import maybe as _tel_maybe


def serve(
    space: CodeSpace,
    sessions: int = 4,
    workers: int = 4,
    seed: int = 42,
    workload: str = "<unit>",
) -> ServeReport:
    """Run ``sessions`` concurrent tenants over ``space``.

    All sessions use the same ``seed``, so byte-identical outputs are
    the expected (and checked) result; any digest divergence is
    cross-tenant leakage.  Session construction happens inside the
    worker, so creation cost is measured as part of latency.
    """
    workers = max(1, min(workers, sessions))
    tel = _tel_maybe(space.telemetry)

    def _run_one(session_id: int) -> SessionResult:
        start = time.perf_counter()
        session = space.create_session(seed=seed)
        try:
            result = session.run()
            wall = time.perf_counter() - start
            sr = SessionResult(
                session_id=session_id,
                seed=seed,
                value=result.value,
                output=result.output,
                digest=output_digest(result.output),
                wall_seconds=wall,
                tib_swaps=session.mutation_stats.tib_swaps,
                special_tibs_created=(
                    session.mutation_stats.special_tibs_created
                ),
                objects_allocated=session.heap.objects_allocated,
            )
        except Exception as exc:  # a tenant failing must not kill the pool
            sr = SessionResult(
                session_id=session_id,
                seed=seed,
                value=None,
                output="",
                digest="",
                wall_seconds=time.perf_counter() - start,
                tib_swaps=0,
                special_tibs_created=0,
                objects_allocated=0,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            session.close()
        if tel is not None:
            tel.count("server.sessions")
            tel.observe("server.session_seconds", sr.wall_seconds)
        return sr

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_run_one, range(sessions)))
    wall = time.perf_counter() - start
    latencies = [r.wall_seconds for r in results] or [0.0]
    return ServeReport(
        workload=workload,
        sessions=sessions,
        workers=workers,
        results=results,
        wall_seconds=wall,
        throughput=(sessions / wall) if wall > 0 else 0.0,
        latency_mean=statistics.fmean(latencies),
        latency_p50=statistics.median(latencies),
        latency_max=max(latencies),
        codespace_hits=space.codespace_hits,
        codespace_build_seconds=space.build_seconds,
        plans_excluded=len(space.shareability_findings),
    )


def serve_workload(
    name: str,
    sessions: int = 4,
    workers: int = 4,
    seed: int = 42,
    scale: float | None = None,
    mutate: bool = True,
    cache: Any = None,
    telemetry: Any = None,
) -> ServeReport:
    """Build a code space for a registered workload and serve it."""
    from repro.mutation import build_mutation_plan
    from repro.workloads.registry import get_workload

    spec = get_workload(name)
    source = spec.source(scale if scale is not None else spec.bench_scale)
    unit = compile_source(
        source,
        filename=f"<{spec.name}>",
        entry_class=spec.entry_class,
        entry_method=spec.entry_method,
    )
    plan = None
    if mutate:
        plan = build_mutation_plan(
            spec.profile_source(), entry_class=spec.entry_class
        )
    space = CodeSpace(
        unit,
        mutation_plan=plan,
        compile_cache=cache,
        telemetry=telemetry,
        warmup_seed=seed,
    )
    return serve(
        space, sessions=sessions, workers=workers, seed=seed,
        workload=spec.name,
    )
