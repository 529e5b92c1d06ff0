"""On-stack replacement: frame capture/materialize fuzz.

The transfer invariant under test: interrupting an interpreted frame at
*any* loop back-edge and materializing it into a compiled continuation
(the promote direction), or interrupting a specialized compiled frame at
any state-write and reconstructing the interpreter frame (the deopt
direction), must be unobservable — same program output, same final heap,
same mutation accounting as a run that was never interrupted.

The capture point is steered without touching the program: the promotion
threshold ``opt1_ticks = ENTRY_TICKS + n`` lands the hot-crossing on the
n-th back-edge of the first invocation, and a ``WRITE_AT`` constant
spliced into the deopt program moves the speculation-killing store to an
arbitrary iteration of the specialized loop.
"""

from __future__ import annotations

import json

import pytest

import repro.vm.osr as osr_mod
from repro import VM, Telemetry, VMConfig, compile_source
from repro.analysis.tv import _iter_special_irs
from repro.bytecode import Instr
from repro.bytecode.opcodes import Op
from repro.bytecode.quicken import Quickener
from repro.cache import compile_key
from repro.cache.keys import stable_digest
from repro.opt.pipeline import OptConfig
from repro.vm.adaptive import ENTRY_TICKS, AdaptiveConfig
from repro.vm.values import VMArray
from tests.helpers import INTERP_ONLY, cache_entries, rewrite_cache_entries

# ---------------------------------------------------------------------------
# Heap digest
# ---------------------------------------------------------------------------


def _digest_value(value, seen):
    if isinstance(value, VMArray):
        if id(value) in seen:
            return "<cycle>"
        seen.add(id(value))
        return ["arr", [_digest_value(v, seen) for v in value.data]]
    fields = getattr(value, "fields", None)
    if fields is not None:
        if id(value) in seen:
            return "<cycle>"
        seen.add(id(value))
        return [
            "obj",
            value.tib.type_info.name,
            [_digest_value(v, seen) for v in fields],
        ]
    return repr(value)


def heap_digest(vm):
    """A stable rendering of everything reachable from static fields."""
    seen: set[int] = set()
    return repr([
        _digest_value(vm.jtoc.get(slot), seen)
        for slot in range(len(vm.jtoc.fields))
    ])


# ---------------------------------------------------------------------------
# Promote direction: OSR-enter at every back-edge
# ---------------------------------------------------------------------------

#: Sequential loop, then a nested loop, then a tail loop — the crossing
#: sweep below lands OSR entries on every distinct back-edge target and
#: at every loop depth, always with locals live across the cut.
PROMOTE_SOURCE = """
class Main {
    static int gx;
    static int[] trace;
    static void main() {
        trace = new int[8];
        int a = 0;
        int i = 0;
        while (i < 60) { a = a + i * 3; i = i + 1; }
        trace[0] = a;
        int b = 1;
        for (int j = 0; j < 40; j++) {
            int k = 0;
            while (k < 4) { b = b + ((a + j * k) % 97); k = k + 1; }
            trace[j % 8] = b;
        }
        int c = 0;
        while (c < a % 50 + 20) { b = b + c; c = c + 1; }
        gx = a * 1000 + b;
        Sys.print("" + a + ":" + b + ":" + c);
    }
}
"""

#: 60 + 40*5 + 30 back-edges; past the end no crossing occurs.
_TOTAL_BACKEDGES = 290


def _reference():
    vm = VM(compile_source(PROMOTE_SOURCE), adaptive_config=INTERP_ONLY)
    return vm.run().output, heap_digest(vm)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 59, 60, 61, 100, 101,
                               150, 259, 260, 280, 290, 400])
def test_osr_enter_at_nth_backedge_is_unobservable(n):
    ref_out, ref_heap = _reference()
    vm = VM(
        compile_source(PROMOTE_SOURCE),
        adaptive_config=AdaptiveConfig(
            opt1_ticks=ENTRY_TICKS + n, opt2_ticks=1 << 40
        ),
        config=VMConfig(osr=True),
    )
    out = vm.run().output
    assert out == ref_out, f"OSR at back-edge {n} changed output"
    assert heap_digest(vm) == ref_heap, (
        f"OSR at back-edge {n} changed the final heap"
    )
    if n <= _TOTAL_BACKEDGES:
        assert vm.mutation_stats.osr_enters == 1, (
            f"crossing on back-edge {n} did not OSR"
        )
    else:
        assert vm.mutation_stats.osr_enters == 0


def test_osr_enter_sweep_every_backedge_of_first_loop():
    """Exhaustive over one loop: every one of the first loop's 60
    back-edges is a correct entry point."""
    ref_out, ref_heap = _reference()
    for n in range(1, 61, 1):
        vm = VM(
            compile_source(PROMOTE_SOURCE),
            adaptive_config=AdaptiveConfig(
                opt1_ticks=ENTRY_TICKS + n, opt2_ticks=1 << 40
            ),
            config=VMConfig(osr=True),
        )
        out = vm.run().output
        assert out == ref_out and heap_digest(vm) == ref_heap, (
            f"OSR at back-edge {n} observable"
        )
        assert vm.mutation_stats.osr_enters == 1


# ---------------------------------------------------------------------------
# Deopt direction: invalidating writes at every iteration
# ---------------------------------------------------------------------------

DEOPT_SOURCE = """
class Worker {
    int mode;
    Worker(int m) { mode = m; }
    public int spin(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) {
            if (mode == 0) { acc = acc + 1; }
            else { acc = acc + 2; }
            if (i == WRITE_AT) { mode = 1; }
        }
        return acc;
    }
}
class Main {
    static Worker hot;
    static void main() {
        int warm = 0;
        for (int r = 0; r < 40; r++) {
            Worker w = new Worker(r % 2);
            warm = warm + w.spin(50);
        }
        hot = new Worker(0);
        Sys.print("" + hot.spin(900) + " " + warm + " " + hot.mode);
    }
}
"""


def _deopt_plan():
    from repro.mutation.plan import (
        HotState,
        MutableClassPlan,
        MutationPlan,
        StateFieldSpec,
    )

    plan = MutationPlan()
    plan.classes["Worker"] = MutableClassPlan(
        class_name="Worker",
        instance_fields=[StateFieldSpec("Worker", "mode", False, 1.0)],
        hot_states=[HotState((0,), ()), HotState((1,), ())],
        mutable_methods=["spin"],
    )
    return plan


def _deopt_run(write_at, adaptive, osr=True, **config):
    source = DEOPT_SOURCE.replace("WRITE_AT", str(write_at))
    vm = VM(compile_source(source), mutation_plan=_deopt_plan(),
            adaptive_config=adaptive, config=VMConfig(osr=osr, **config))
    return vm, vm.run().output


@pytest.mark.parametrize("write_at", [0, 1, 2, 3, 7, 51, 52, 100,
                                      420, 898, 899])
def test_deopt_at_nth_iteration_is_unobservable(write_at):
    """The speculation-invalidating store moves across the specialized
    loop; wherever it lands, the deopted run matches the interpreter."""
    interp_vm, ref = _deopt_run(write_at, INTERP_ONLY)
    agg = AdaptiveConfig(opt1_ticks=16, opt2_ticks=32)
    vm, out = _deopt_run(write_at, agg, osr=True)
    assert out == ref, f"deopt at iteration {write_at} changed output"
    assert heap_digest(vm) == heap_digest(interp_vm)
    assert vm.mutation_stats.tib_swaps == interp_vm.mutation_stats.tib_swaps
    # The hot call dispatches to the state-0 special, whose guard must
    # fire at the write.  (write_at < 52: the store happens during the
    # warm-up calls' interpreted/OSR frames too, but the 900-iteration
    # hot frame still deopts at its own write.)
    assert vm.mutation_stats.osr_deopts >= 1, (
        f"write at iteration {write_at} did not deopt"
    )
    off_vm, off_out = _deopt_run(write_at, agg, osr=False)
    assert off_out == ref
    assert off_vm.mutation_stats.osr_deopts == 0


class _ReadLog(list):
    """A copy of a code body that logs each slot read from it."""

    def __init__(self, body, reads):
        super().__init__(body)
        self.reads = reads

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)


@pytest.mark.parametrize("body", ["quick", "pristine", "refused"])
@pytest.mark.parametrize("write_at", [0, 51, 420, 899])
def test_deopt_resumes_on_the_published_body(monkeypatch, write_at, body):
    """A deopt resumes the interpreter loop at its guard's pc on the
    method's published quickened body, and on ``info.code`` when
    quickening is off or TV refused the body; either way the run
    matches the interpreter."""
    # Guard pcs are read from freshly compiled specials' IR; a
    # cache-linked special carries none.
    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    interp_vm, ref = _deopt_run(write_at, INTERP_ONLY)
    if body == "refused":
        rewrite = Quickener._rewrite

        def corrupt_spin(self, rm):
            quick = rewrite(self, rm)
            if rm.qualified_name == "Worker.spin":
                i = next(k for k, ins in enumerate(quick)
                         if ins.op is Op.INC)
                local, step = quick[i].arg
                quick[i] = Instr(Op.INC, (local, step + 1), quick[i].line)
            return quick

        monkeypatch.setattr(Quickener, "_rewrite", corrupt_spin)
    resumes = []
    resume = osr_mod.interpret_quick

    def recording(vm, rm, locals_, pc):
        published, reads = rm.quick_code, []
        if published is not None:
            rm.quick_code = _ReadLog(published, reads)
        try:
            return resume(vm, rm, locals_, pc)
        finally:
            rm.quick_code = published
            resumes.append((rm, pc, published, reads[:1]))

    monkeypatch.setattr(osr_mod, "interpret_quick", recording)
    agg = AdaptiveConfig(opt1_ticks=16, opt2_ticks=32)
    vm, out = _deopt_run(write_at, agg, quicken=body != "pristine", tv=True)
    assert out == ref
    assert heap_digest(vm) == heap_digest(interp_vm)
    assert vm.mutation_stats.tib_swaps == interp_vm.mutation_stats.tib_swaps
    assert len(resumes) == vm.mutation_stats.osr_deopts >= 1
    spin = vm.classes["Worker"].own_methods["spin"]
    guard_pcs = {
        ins.extra.pc
        for _mcr, rm, _tib, fn in _iter_special_irs(vm) if rm is spin
        for block in fn.blocks.values() for ins in block.instrs
        if ins.op == "deoptcheck"
    }
    assert guard_pcs
    for rm, pc, published, first_read in resumes:
        assert rm is spin and pc in guard_pcs
        if body == "quick":
            # The loop's first read is the resume slot of the body the
            # quickener published.
            assert published is spin.quick_code is not None
            assert first_read == [pc]
        else:
            assert published is None
    if body == "refused":
        assert spin.quick_tried and "quicken:Worker.spin" in vm.tv_downgrades


# ---------------------------------------------------------------------------
# Capture-point eligibility and continuation caching
# ---------------------------------------------------------------------------


def test_lower_method_osr_rejects_ineligible_pcs():
    from repro.opt.lowering import Lowerer, lower_method_osr

    vm = VM(compile_source(PROMOTE_SOURCE), adaptive_config=INTERP_ONLY)
    info = vm.classes["Main"].own_methods["main"].info
    depths = Lowerer(info).depths

    stacky = [pc for pc, d in enumerate(depths) if d and d > 0]
    assert stacky, "test needs at least one non-empty-stack pc"
    with pytest.raises(ValueError, match="non-empty operand stack"):
        lower_method_osr(info, stacky[0])

    fn = lower_method_osr(info, 0)
    assert fn.num_args == fn.max_locals
    # A depth-0 pc that is not a block leader is rejected too.
    lw = Lowerer(info)
    lw.lower()
    nonleaders = [
        pc for pc, d in enumerate(lw.depths)
        if d == 0 and lw.cfg.blocks[lw.cfg.block_of_instr[pc]].start != pc
    ]
    if nonleaders:
        with pytest.raises(ValueError, match="not a block leader"):
            lower_method_osr(info, nonleaders[0])


def test_failed_continuations_are_cached_as_misses():
    """entry_for caches one compile attempt per pc: an ineligible pc
    yields None forever (False sentinel) without raising, and a good pc
    yields the same callable on every subsequent crossing."""
    vm = VM(
        compile_source(PROMOTE_SOURCE),
        adaptive_config=AdaptiveConfig(opt1_ticks=ENTRY_TICKS + 5,
                                       opt2_ticks=1 << 40),
        config=VMConfig(osr=True),
    )
    vm.run()
    rm = vm.classes["Main"].own_methods["main"]
    assert rm.osr_entries and len(rm.osr_entries) == 1
    (pc, entry), = rm.osr_entries.items()
    assert callable(entry)
    assert vm.osr.entry_for(rm, pc) is entry
    # An ineligible pc (operand stack busy there) misses quietly.
    from repro.opt.lowering import Lowerer

    depths = Lowerer(rm.info).depths
    bad = next(pc for pc, d in enumerate(depths) if d and d > 0)
    assert vm.osr.entry_for(rm, bad) is None
    assert rm.osr_entries[bad] is False
    assert vm.osr.entry_for(rm, bad) is None  # cached, no recompile


def test_osr_compile_failure_is_counted_and_the_frame_interprets(
        monkeypatch):
    """A continuation compile that raises is counted with telemetry off,
    and the frame keeps interpreting to the same output."""
    def promote_vm():
        return VM(
            compile_source(PROMOTE_SOURCE),
            adaptive_config=AdaptiveConfig(opt1_ticks=ENTRY_TICKS + 5,
                                           opt2_ticks=1 << 40),
            config=VMConfig(osr=True),
        )

    reference = promote_vm()
    expected = reference.run().output
    assert reference.mutation_stats.osr_compile_failures == 0
    assert reference.mutation_stats.osr_enters > 0
    vm = promote_vm()
    assert vm.telemetry is None

    def broken(*args, **kwargs):
        raise AssertionError("compiler fault")

    monkeypatch.setattr(vm.opt_compiler, "compile_osr_continuation", broken)
    assert vm.run().output == expected
    assert vm.mutation_stats.osr_compile_failures == 1
    assert vm.mutation_stats.osr_enters == 0


def test_osr_disabled_vm_has_no_manager():
    vm = VM(compile_source(PROMOTE_SOURCE), adaptive_config=INTERP_ONLY,
            config=VMConfig(osr=False))
    assert vm.osr is None
    out = vm.run().output
    assert out and vm.mutation_stats.osr_enters == 0


# ---------------------------------------------------------------------------
# Continuations in the persistent compile cache
# ---------------------------------------------------------------------------

#: Crossings on these back-edges enter the first loop's header and the
#: tail loop's header: two distinct entry pcs of one method.
_FIRST_LOOP_N = 30
_TAIL_LOOP_N = 280


def _osr_run(n, cache_dir=None, config=None):
    vm = VM(
        compile_source(PROMOTE_SOURCE),
        adaptive_config=AdaptiveConfig(
            opt1_ticks=ENTRY_TICKS + n, opt2_ticks=1 << 40
        ),
        config=config or VMConfig(osr=True),
        compile_cache=str(cache_dir) if cache_dir else None,
    )
    return vm, vm.run().output


def _osr_cache_entries(cache_dir):
    return [
        entry for entry in cache_entries(cache_dir)
        if entry["meta"].get("osr_pc") is not None
    ]


def test_warm_start_links_the_continuation_from_cache(tmp_path):
    ref_out, ref_heap = _reference()
    cold, _ = _osr_run(_FIRST_LOOP_N, tmp_path)
    assert len(_osr_cache_entries(tmp_path)) == 1
    warm, out = _osr_run(_FIRST_LOOP_N, tmp_path)
    assert out == ref_out and heap_digest(warm) == ref_heap
    assert warm.mutation_stats.osr_enters == 1
    assert warm.compile_cache.misses == 0
    assert warm.compile_cache.hits == cold.compile_cache.misses
    stats = warm.compile_stats
    assert stats.cached_methods == len(stats.events) == 2
    assert stats.total_code_bytes == cold.compile_stats.total_code_bytes


def test_continuation_keys_commit_to_the_entry_pc():
    pcs = []
    for n in (_FIRST_LOOP_N, _TAIL_LOOP_N):
        vm, _ = _osr_run(n)
        pcs += list(vm.classes["Main"].own_methods["main"].osr_entries)
    assert len(set(pcs)) == 2
    rm = vm.classes["Main"].own_methods["main"]
    general = compile_key(vm, rm, 2, None, OptConfig())
    keys = {compile_key(vm, rm, 2, None, OptConfig(), pc) for pc in pcs}
    assert len(keys) == 2 and general not in keys


@pytest.mark.parametrize("poison", ["checksum", "pin"])
def test_poisoned_continuation_is_a_miss_and_recompiles(tmp_path, poison):
    """A corrupt entry (stale checksum) and an unlinkable one (a pin
    this program cannot resolve) are both counted misses, followed by a
    recompile that stores a fresh entry."""
    ref_out, ref_heap = _reference()
    _osr_run(_FIRST_LOOP_N, tmp_path)
    (continuation,) = _osr_cache_entries(tmp_path)

    def poison_continuation(text):
        entry = json.loads(text)
        if entry["key"] != continuation["key"]:
            return text
        artifact = entry["artifact"]
        if poison == "checksum":
            artifact["source"] = "def _jx_osr(vm, args): return 666\n"
            artifact.pop("marshal", None)
        else:
            artifact["pins"].append(["_ghost", ["class", "NoSuchClass"]])
            entry["artifact_sha"] = stable_digest(artifact)
        return json.dumps(entry)

    rewrite_cache_entries(tmp_path, poison_continuation)

    warm, out = _osr_run(_FIRST_LOOP_N, tmp_path)
    assert out == ref_out and heap_digest(warm) == ref_heap
    assert warm.mutation_stats.osr_enters == 1
    cache = warm.compile_cache
    assert cache.misses == 1 and cache.stores == 1
    assert cache.link_errors == (1 if poison == "pin" else 0)
    stats = warm.compile_stats
    assert stats.cached_methods == len(stats.events) - 1


def test_rejected_entry_never_links_the_stored_continuation(
    tmp_path, monkeypatch
):
    """TV's entry check runs before the cache lookup: with the check
    rejecting, a warm VM looks up only the general compile and never
    enters the stored continuation."""
    import repro.analysis.tv as tv

    ref_out, _ = _reference()
    config = VMConfig(osr=True, tv=True)
    _osr_run(_FIRST_LOOP_N, tmp_path, config)
    assert len(_osr_cache_entries(tmp_path)) == 1
    monkeypatch.setattr(tv, "check_osr_entry", lambda *args: False)
    warm, out = _osr_run(_FIRST_LOOP_N, tmp_path, config)
    assert out == ref_out
    assert warm.mutation_stats.osr_enters == 0
    cache = warm.compile_cache
    assert (cache.hits, cache.misses) == (1, 0)
    assert len(warm.compile_stats.events) == 1


def test_osr_lowering_counts_in_the_pass_budget(monkeypatch):
    """An OSR continuation's lowering is timed as a ``lower`` pass, so
    with no specials every compile event lowers exactly once."""
    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    tel = Telemetry()
    vm = VM(
        compile_source(PROMOTE_SOURCE),
        adaptive_config=AdaptiveConfig(
            opt1_ticks=ENTRY_TICKS + _FIRST_LOOP_N, opt2_ticks=1 << 40
        ),
        config=VMConfig(osr=True),
        telemetry=tel,
    )
    vm.run()
    assert vm.mutation_stats.osr_enters == 1
    lowered = tel.summary()["histograms"]["opt.pass_seconds.lower"]
    assert lowered["count"] == len(vm.compile_stats.events)


def test_liveness_runs_once_per_entry_build(monkeypatch):
    """``_build_entry`` computes the compensation set from one liveness
    run per entry, not one per local slot (TV's cross-check imports its
    own reference and is not counted)."""
    import repro.vm.osr as osr

    calls = []
    real = osr.live_locals

    def counting(code, **kwargs):
        calls.append(len(code))
        return real(code, **kwargs)

    monkeypatch.setattr(osr, "live_locals", counting)
    vm, _ = _osr_run(_FIRST_LOOP_N)
    entries = vm.classes["Main"].own_methods["main"].osr_entries
    assert len(entries) == 1
    assert len(calls) == 1

