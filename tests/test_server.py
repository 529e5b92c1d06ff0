"""Multi-session serving: isolation, accounting, and concurrency.

The invariants here are the whole point of the CodeSpace/Session split
(DESIGN decision 16):

* a session is observationally identical to a solo VM — byte-identical
  output *and* identical mutation accounting (swaps);
* no per-session counter ever bleeds into another session or into the
  template;
* tearing a session down releases everything it allocated — the shared
  world pins no tenant state;
* concurrent same-key compiles against one cache serialize into
  exactly one compile.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time
import weakref

import pytest

from repro import VM, compile_source
from repro.cache import CompileCache
from repro.mutation import build_mutation_plan
from repro.mutation.plan import (
    MutableClassPlan,
    MutationPlan,
    StateFieldSpec,
)
from repro.server import (
    CodeSpace,
    filter_shareable_plan,
    output_digest,
    serve,
)
from repro.workloads import get_workload
from tests.helpers import AGGRESSIVE

SCALE = 0.05


def _workload_bits(name: str, scale: float = SCALE):
    spec = get_workload(name)
    source = spec.source(scale)
    plan = build_mutation_plan(
        spec.profile_source(), entry_class=spec.entry_class
    )
    def unit():
        return compile_source(
            source,
            entry_class=spec.entry_class,
            entry_method=spec.entry_method,
        )
    return spec, unit, plan


# ---------------------------------------------------------------------------
# Differential: session == solo VM
# ---------------------------------------------------------------------------

# salarydb exercises plain swaps; jbb2000 also exercises back-to-back
# state writes to one object and multiple mutable classes.
@pytest.mark.parametrize("name", ["salarydb", "jbb2000"])
def test_session_byte_identical_to_solo_vm(name):
    spec, unit, plan = _workload_bits(name)
    solo = VM(unit(), mutation_plan=plan, adaptive_config=AGGRESSIVE,
              seed=7)
    ref = solo.run()
    assert solo.mutation_stats.tib_swaps > 0  # mutation actually ran

    space = CodeSpace(unit(), mutation_plan=plan, warmup_seed=7)
    session = space.create_session(seed=7)
    got = session.run()

    assert got.output == ref.output
    assert got.value == ref.value
    # Mutation accounting matches exactly — swaps and the specials all
    # live in shared structures but charge the session.
    assert session.mutation_stats.tib_swaps == \
        solo.mutation_stats.tib_swaps


def test_unmutated_session_matches_solo_vm():
    spec, unit, _ = _workload_bits("salarydb")
    solo = VM(unit(), adaptive_config=AGGRESSIVE, seed=9)
    ref = solo.run()
    space = CodeSpace(unit(), warmup_seed=9)
    got = space.create_session(seed=9).run()
    assert got.output == ref.output


# ---------------------------------------------------------------------------
# Per-session accounting: no bleed
# ---------------------------------------------------------------------------

def test_session_swap_counts_never_bleed():
    """Two sessions each see exactly their own swaps; neither the other
    session's nor the template's warmup swaps appear anywhere else."""
    spec, unit, plan = _workload_bits("salarydb")
    space = CodeSpace(unit(), mutation_plan=plan, warmup_seed=7)
    template_swaps = space.vm.mutation_stats.tib_swaps
    assert template_swaps > 0  # warmup mutated the template's objects

    a = space.create_session(seed=7)
    a.run()
    a_swaps = a.mutation_stats.tib_swaps
    assert a_swaps > 0

    b = space.create_session(seed=7)
    b.run()

    # b's run changed nothing about a or the template.
    assert a.mutation_stats.tib_swaps == a_swaps
    assert b.mutation_stats.tib_swaps == a_swaps  # same work, same count
    assert space.vm.mutation_stats.tib_swaps == template_swaps


def test_session_static_fields_are_private():
    """One tenant's static-field writes are invisible to the others:
    each session runs its own <clinit> against a pristine snapshot and
    owns its field storage."""
    source = """
    class Counter {
        static int hits;
        static int bump() { Counter.hits = Counter.hits + 1;
                            return Counter.hits; }
    }
    class Main {
        static void main() { Sys.print("" + Counter.bump()); }
    }
    """
    unit = compile_source(source)
    space = CodeSpace(unit, adaptive_config=AGGRESSIVE)
    a = space.create_session()
    b = space.create_session()
    assert a.run().output == "1\n"
    # a's bump must not leak into b: b also sees 1, not 2.
    assert b.run().output == "1\n"
    # ...and the views really are distinct storage.
    assert a.jtoc.fields is not b.jtoc.fields
    assert a.jtoc.fields is not space.vm.jtoc.fields


def test_sessions_never_compile():
    """The frozen space means sessions execute only — zero session-time
    compiles, and the template's compiled state is untouched."""
    spec, unit, plan = _workload_bits("salarydb")
    space = CodeSpace(unit(), mutation_plan=plan)
    template_events = len(space.vm.compile_stats.events)
    session = space.create_session()
    session.run()
    assert session.compile_stats.total_seconds == 0.0
    assert session.compile_stats.events == []
    assert len(space.vm.compile_stats.events) == template_events


# ---------------------------------------------------------------------------
# Teardown
# ---------------------------------------------------------------------------

def test_session_teardown_releases_private_state():
    """After close(), nothing in the shared world retains the session's
    heap or output — the intrinsic context (which anchors the output
    buffer and any objects printed through it) must be collectible."""
    spec, unit, plan = _workload_bits("salarydb")
    space = CodeSpace(unit(), mutation_plan=plan)
    session = space.create_session()
    session.run()
    ctx_ref = weakref.ref(session.intrinsic_ctx)
    stats_ref = weakref.ref(session.mutation_stats)
    session.close()
    gc.collect()
    assert ctx_ref() is None, "shared world retained a session's context"
    assert stats_ref() is None, "shared world retained session stats"
    # The world is intact: the next tenant runs normally.
    fresh = space.create_session()
    assert fresh.run().output == space.warmup_output


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------

def test_randomized_interleaving_stress():
    """Many sessions, few workers, aggressive thread switching, and a
    seeded-random stagger on session start: every digest must still be
    identical to the solo reference."""
    spec, unit, plan = _workload_bits("salarydb")
    solo = VM(unit(), mutation_plan=plan, adaptive_config=AGGRESSIVE,
              seed=3)
    expected = output_digest(solo.run().output)

    space = CodeSpace(unit(), mutation_plan=plan, warmup_seed=3)
    rng = random.Random(0xC60)
    staggers = [rng.uniform(0.0, 0.002) for _ in range(12)]
    digests: list[str] = []
    swap_counts: list[int] = []
    lock = threading.Lock()

    def tenant(index: int) -> None:
        time.sleep(staggers[index])
        session = space.create_session(seed=3)
        out = session.run().output
        with lock:
            digests.append(output_digest(out))
            swap_counts.append(session.mutation_stats.tib_swaps)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=tenant, args=(i,))
            for i in range(len(staggers))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old_interval)

    assert len(digests) == len(staggers)
    assert set(digests) == {expected}
    assert len(set(swap_counts)) == 1  # identical work, identical count


def test_serve_driver_report():
    spec, unit, plan = _workload_bits("salarydb")
    space = CodeSpace(unit(), mutation_plan=plan, warmup_seed=5)
    report = serve(space, sessions=6, workers=3, seed=5,
                   workload="salarydb")
    assert report.sessions == 6
    assert not report.errors
    assert report.digests_identical
    assert report.codespace_hits == 6
    assert report.throughput > 0
    assert report.latency_max >= report.latency_p50 > 0
    assert all(r.tib_swaps == report.results[0].tib_swaps
               for r in report.results)


def test_cache_key_lock_single_compile(tmp_path):
    """Concurrent holders of one key serialize, the wait is accounted,
    and the guarded compute runs exactly once."""
    cache = CompileCache(tmp_path / "jxcache")
    compiles: list[int] = []
    done: dict[str, bool] = {}

    def worker() -> None:
        with cache.key_lock("k1"):
            if not done.get("k1"):
                time.sleep(0.02)  # widen the race window
                compiles.append(1)
                done["k1"] = True

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(compiles) == 1
    assert cache.lock_waits >= 1
    assert cache.lock_wait_seconds > 0.0


def test_concurrent_vms_share_cache_without_duplicate_stores(tmp_path):
    """Two VMs compiling the same program concurrently against one
    cache: per-key locking turns the second compiler of each key into a
    hit, so every entry is stored exactly once and nothing is torn."""
    spec, unit, plan = _workload_bits("salarydb")
    cache = CompileCache(tmp_path / "jxcache")
    outputs: list[str] = []
    lock = threading.Lock()

    def one_vm() -> None:
        vm = VM(unit(), mutation_plan=plan, adaptive_config=AGGRESSIVE,
                compile_cache=cache, seed=7)
        out = vm.run().output
        with lock:
            outputs.append(out)

    threads = [threading.Thread(target=one_vm) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(outputs)) == 1
    stats = cache.stats()
    # Exactly-once store per key: the on-disk entry count equals the
    # store count (a duplicate compile would store the same key twice).
    assert stats["entries"] == cache.stores
    # Every stored entry is complete and loadable (no torn writes).
    assert stats["entries"] > 0


# ---------------------------------------------------------------------------
# Shareability gate
# ---------------------------------------------------------------------------

def _static_state_plan() -> MutationPlan:
    plan = MutationPlan()
    plan.classes["Counter"] = MutableClassPlan(
        class_name="Counter",
        static_fields=[StateFieldSpec(
            declaring_class="Counter", field_name="mode",
            is_static=True, score=1.0,
        )],
    )
    return plan


def test_static_state_plans_excluded_from_shared_space():
    shared, findings = filter_shareable_plan(_static_state_plan())
    assert shared is None  # the only class was excluded
    assert len(findings) == 1
    assert findings[0].class_name == "Counter"
    assert "static state field" in findings[0].reason


def test_instance_only_plans_pass_the_gate():
    spec, unit, plan = _workload_bits("salarydb")
    shared, findings = filter_shareable_plan(plan)
    assert shared is plan
    assert findings == []


def test_mixed_plan_keeps_instance_only_classes():
    plan = _static_state_plan()
    plan.classes["Ok"] = MutableClassPlan(
        class_name="Ok",
        instance_fields=[StateFieldSpec(
            declaring_class="Ok", field_name="grade",
            is_static=False, score=1.0,
        )],
    )
    shared, findings = filter_shareable_plan(plan)
    assert shared is not None
    assert list(shared.classes) == ["Ok"]
    assert [f.class_name for f in findings] == ["Counter"]


def test_codespace_with_static_plan_runs_unmutated_but_correct():
    source = """
    class Counter {
        static int mode;
        int poke() { Counter.mode = Counter.mode + 1;
                     return Counter.mode; }
    }
    class Main {
        static void main() {
            Counter c = new Counter();
            int i = 0;
            while (i < 5) { Sys.print("" + c.poke()); i = i + 1; }
        }
    }
    """
    unit = compile_source(source)
    reference = VM(compile_source(source),
                   adaptive_config=AGGRESSIVE).run().output
    space = CodeSpace(unit, mutation_plan=_static_state_plan())
    assert len(space.shareability_findings) == 1
    assert space.vm.mutation_manager is None  # whole plan was excluded
    session = space.create_session()
    assert session.run().output == reference


def test_sessions_never_quicken_or_validate():
    """The freeze quickens every method the warmup left cold, so a
    session neither builds nor validates a body: every ``quick_code``
    object is the one the template published."""
    from repro import VMConfig

    spec, unit, plan = _workload_bits("salarydb")
    space = CodeSpace(unit(), mutation_plan=plan,
                      config=VMConfig(quicken=True, tv=True))
    methods = space.vm.all_runtime_methods()
    assert all(rm.quick_tried for rm in methods)
    bodies = {rm: rm.quick_code for rm in methods}
    validated = space.vm.quickener.validated
    template_tv = space.vm.mutation_stats.tv_bodies_validated
    assert validated == len(methods)

    session = space.create_session()
    session.run()
    assert all(rm.quick_code is bodies[rm] for rm in methods)
    assert space.vm.quickener.validated == validated
    assert space.vm.mutation_stats.tv_bodies_validated == template_tv
    assert session.mutation_stats.tv_bodies_validated == 0
