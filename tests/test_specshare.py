"""Specialization sharing + memoization (repro.opt.eqstate, repro.vm.memo).

Covers the equivalence-modulo-state machinery end to end:

* :func:`state_reads` — exact, flow-sensitive state-read sets on the
  post-inline opt2 IR;
* body sharing — hot states with equal read-set projections share one
  compiled object under N ``rm.specials`` keys, and states equivalent
  modulo the class read union share one special TIB;
* the zero-replacement bugfix — a mutable method reading none of the
  bound slots aliases the general body and contributes 0 special bytes
  (gating-independent);
* the ``apply_static_state`` fallback bugfix — every dispatch surface
  of a static-only class falls back to ``rm.general`` after the class
  leaves all hot states post-recompile;
* unified specials accounting — manager alias == VMStats == telemetry
  counters;
* memoization — pure specials get wrapped, hit, invalidate on swaps,
  and stay session-private under a shared code space.
"""

from __future__ import annotations

import pytest

from repro import VM, VMConfig, compile_source
from repro.cache.keys import environment_payload
from repro.mutation.plan import (
    HotState,
    MutableClassPlan,
    MutationPlan,
    StateFieldSpec,
)
from repro.opt.eqstate import ir_is_pure, state_reads
from repro.server import CodeSpace
from repro.vm.memo import MemoizedSpecial
from tests.helpers import AGGRESSIVE

SHARE_SOURCE = """
class Tariff {
    private int band;
    int tag;
    int acc;
    Tariff(int b, int t) { band = b; tag = t; }
    public void setBand(int b) { band = b; }
    public void setTag(int t) { tag = t; }
    public int rate(int units) {
        if (band == 0) { return units * 2; }
        if (band == 1) { return units * 3 + 1; }
        if (band == 2) { return units * 5 + 2; }
        if (band == 3) { return units * 7 + 3; }
        if (band == 4) { return units * 11 + 4; }
        if (band == 5) { return units * 13 + 5; }
        if (band == 6) { return units * 17 + 6; }
        return units * 19 + 7;
    }
    public void bump() { band = band + 1; }
    public int peek(Tariff o) { return o.tag; }
    public void accrue(int u) { acc = acc + u * 2; }
}
class Main {
    static Tariff[] ts;
    static void main() {
        ts = new Tariff[4];
        for (int i = 0; i < 4; i++) { ts[i] = new Tariff(i % 2, i / 2); }
        int total = 0;
        for (int r = 0; r < 400; r++) {
            for (int j = 0; j < 4; j++) {
                total = total + ts[j].rate(r % 5);
                ts[j].accrue(r % 3);
            }
        }
        for (int j = 0; j < 4; j++) { total = total + ts[j].acc; }
        Sys.print("" + total);
    }
}
"""


def _share_plan(mutable=("rate",)) -> MutationPlan:
    plan = MutationPlan()
    plan.classes["Tariff"] = MutableClassPlan(
        class_name="Tariff",
        instance_fields=[
            StateFieldSpec("Tariff", "band", False, 1.0),
            StateFieldSpec("Tariff", "tag", False, 1.0),
        ],
        # band x tag: 2x2 = 4 hot states; `rate` reads only band, so
        # the four states collapse to two equivalence classes.
        hot_states=[
            HotState((b, t), ()) for b in (0, 1) for t in (0, 1)
        ],
        mutable_methods=list(mutable),
    )
    return plan


def _share_vm(spec_share=True, memo=True, telemetry=None,
              mutable=("rate",), seed=42):
    vm = VM(
        compile_source(SHARE_SOURCE),
        mutation_plan=_share_plan(mutable),
        adaptive_config=AGGRESSIVE,
        telemetry=telemetry,
        config=VMConfig(spec_share=spec_share, memo=memo),
        seed=seed,
    )
    result = vm.run()
    return vm, result.output


def _slots(vm):
    band = vm.unit.lookup_field("Tariff", "band").slot
    tag = vm.unit.lookup_field("Tariff", "tag").slot
    return band, tag


# ---------------------------------------------------------------------------
# state_reads: exact read sets on the specialization IR
# ---------------------------------------------------------------------------

def test_state_reads_exact_sets():
    vm, _ = _share_vm()
    band, tag = _slots(vm)
    mcr = vm.mutation_manager.mcrs["Tariff"]
    slots = mcr.instance_slots

    reads = state_reads(
        vm.opt_compiler.spec_ir(vm.lookup("Tariff", "rate")), slots, []
    )
    assert reads.instance == {band}  # tag is never read
    assert reads.static == frozenset()
    assert not reads.tib_dependent  # rate writes no state

    # bump reads band then writes it: the slot cannot be specialized
    # (specialize_ir skips self-written slots), and the hooked write
    # makes the body TIB-dependent under OSR.
    reads = state_reads(
        vm.opt_compiler.spec_ir(vm.lookup("Tariff", "bump")), slots, []
    )
    assert reads.instance == frozenset()
    assert reads.tib_dependent

    # peek reads tag off a *parameter*, not this: receiver-sensitive
    # analysis must not count it.
    reads = state_reads(
        vm.opt_compiler.spec_ir(vm.lookup("Tariff", "peek")), slots, []
    )
    assert reads.instance == frozenset()

    # accrue touches only the non-state field acc.
    reads = state_reads(
        vm.opt_compiler.spec_ir(vm.lookup("Tariff", "accrue")), slots, []
    )
    assert reads.instance == frozenset()
    assert not reads.tib_dependent


def test_state_reads_projection_keys():
    vm, _ = _share_vm()
    band, tag = _slots(vm)
    reads = state_reads(
        vm.opt_compiler.spec_ir(vm.lookup("Tariff", "rate")),
        [band, tag], [],
    )
    same = reads.project({band: 0, tag: 0}, {})
    other_tag = reads.project({band: 0, tag: 1}, {})
    other_band = reads.project({band: 1, tag: 0}, {})
    assert same == other_tag  # tag is unread: projections collapse
    assert same != other_band
    # Type-tagged values: 0 and 0.0 must not collide.
    assert reads.project({band: 0}, {}) != reads.project({band: 0.0}, {})


# ---------------------------------------------------------------------------
# Body + TIB sharing
# ---------------------------------------------------------------------------

def test_equivalent_states_share_one_body_and_tib():
    vm, out = _share_vm(spec_share=True)
    rm = vm.lookup("Tariff", "rate")
    assert rm.general.opt_level == 2  # the workload got hot
    assert len(rm.specials) == 4  # every hot state has its key...
    assert len({id(cm) for cm in rm.specials.values()}) == 2  # ...2 bodies
    band, tag = _slots(vm)
    # States differing only in tag alias the same compiled object.
    assert rm.specials[((0, 0), ())] is rm.specials[((0, 1), ())]
    assert rm.specials[((1, 0), ())] is rm.specials[((1, 1), ())]
    assert rm.specials[((0, 0), ())] is not rm.specials[((1, 0), ())]

    stats = vm.mutation_stats
    assert stats.specials_compiled == 2
    assert stats.specials_shared == 2

    # TIB merging: the class read union is {band}, so the four hot
    # instance tuples occupy two special TIBs.
    rc = vm.classes["Tariff"]
    assert len(rc.special_tibs) == 4
    assert len({id(t) for t in rc.special_tibs.values()}) == 2
    assert rc.special_tibs[(0, 0)] is rc.special_tibs[(0, 1)]
    assert stats.special_tibs_created == 2
    assert stats.special_tibs_shared == 2

    # Sharing never changes behavior: byte-identical to the unshared run.
    _, ref = _share_vm(spec_share=False)
    assert out == ref


def test_share_off_keeps_linear_model():
    vm, _ = _share_vm(spec_share=False, memo=False)
    rm = vm.lookup("Tariff", "rate")
    assert len(rm.specials) == 4
    assert len({id(cm) for cm in rm.specials.values()}) == 4
    stats = vm.mutation_stats
    assert stats.specials_compiled == 4
    assert stats.specials_shared == 0
    assert stats.special_tibs_created == 4
    assert stats.special_tibs_shared == 0


def test_shared_bodies_cut_special_code_bytes():
    shared_vm, _ = _share_vm(spec_share=True)
    linear_vm, _ = _share_vm(spec_share=False)
    shared = shared_vm.compile_stats.special_code_bytes
    linear = linear_vm.compile_stats.special_code_bytes
    assert 0 < shared <= linear / 2  # 2 of 4 bodies compiled
    assert (shared_vm.tib_space.special_tib_bytes
            <= linear_vm.tib_space.special_tib_bytes / 2)


# ---------------------------------------------------------------------------
# Bugfix: zero-replacement specials alias the general body
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec_share", [True, False])
def test_zero_replacement_special_aliases_general(spec_share):
    """A mutable method reading *no* state fields must not get per-state
    compiled copies: every key aliases the general body and contributes
    0 to compile.special_code_bytes.  Holds with sharing off too — this
    is a bugfix, not an optimization gate."""
    vm, _ = _share_vm(
        spec_share=spec_share, telemetry=True, mutable=("accrue",)
    )
    rm = vm.lookup("Tariff", "accrue")
    assert rm.general.opt_level == 2
    assert len(rm.specials) == 4
    for cm in rm.specials.values():
        assert cm is rm.general
    assert vm.compile_stats.special_code_bytes == 0
    assert vm.mutation_stats.specials_compiled == 0
    assert vm.mutation_stats.specials_shared == 4
    counters = vm.telemetry.summary()["counters"]
    assert counters.get("compile.special_code_bytes", 0) == 0
    assert counters.get("mutation.specials_compiled", 0) == 0
    assert counters.get("mutation.specials_shared", 0) == 4


# ---------------------------------------------------------------------------
# Bugfix: apply_static_state falls back to rm.general everywhere
# ---------------------------------------------------------------------------

STATIC_SOURCE = """
class Engine {
    static int mode;
    int gain;
    Engine(int g) { gain = g; }
    public int step(int x) {
        if (Engine.mode == 0) { return x + gain; }
        return x * 2 + gain;
    }
    private int boost(int x) {
        if (Engine.mode == 0) { return x + 1; }
        return x * 3;
    }
    public int run(int x) { return this.boost(x); }
    static int calc(int x) {
        if (Engine.mode == 0) { return x; }
        return x * 3;
    }
    static void setMode(int m) { Engine.mode = m; }
}
class Main {
    static void main() {
        Engine e = new Engine(3);
        int total = 0;
        for (int i = 0; i < 300; i++) {
            total = total + e.step(i % 7) + e.run(i % 5)
                  + Engine.calc(i % 11);
        }
        Engine.setMode(1);
        for (int i = 0; i < 300; i++) {
            total = total + e.step(i % 7) + e.run(i % 5)
                  + Engine.calc(i % 11);
        }
        Sys.print("" + total);
    }
}
"""


def _static_only_plan() -> MutationPlan:
    plan = MutationPlan()
    plan.classes["Engine"] = MutableClassPlan(
        class_name="Engine",
        static_fields=[StateFieldSpec("Engine", "mode", True, 1.0)],
        hot_states=[HotState((), (0,)), HotState((), (1,))],
        mutable_methods=["step", "boost", "calc"],
    )
    return plan


def test_static_only_flip_out_restores_general_everywhere():
    """Regression (fallback unification): flip a static-only class out
    of all hot states after the opt2 recompile — every dispatch surface
    (class-TIB entry, JTOC cell, private invokespecial pointer) must
    land on ``rm.general``, never a stale special or pre-opt2 code."""
    vm = VM(
        compile_source(STATIC_SOURCE),
        mutation_plan=_static_only_plan(),
        adaptive_config=AGGRESSIVE,
    )
    out = vm.run().output
    rc = vm.classes["Engine"]
    step = vm.lookup("Engine", "step")
    boost = vm.lookup("Engine", "boost")
    calc = vm.lookup("Engine", "calc")
    assert step.specials and calc.specials  # mutation really happened
    assert boost.vtable_offset < 0  # exercises the rm.compiled branch
    # In hot state 1 the special is installed...
    special = step.specials.get(((), (1,)))
    if special is not None:
        assert rc.class_tib.entries[step.vtable_offset] is special

    # ...then flip out of every hot state.
    vm.call_static("Engine", "setMode", [5])
    assert rc.class_tib.entries[step.vtable_offset] is step.general
    assert calc.jtoc_cell.compiled is calc.general
    assert boost.compiled is boost.general
    assert step.general.opt_level == 2

    # The program still runs correctly in the cold state.
    ref = VM(
        compile_source(STATIC_SOURCE), adaptive_config=AGGRESSIVE
    ).run().output
    assert out == ref


# ---------------------------------------------------------------------------
# Bugfix: unified specials accounting
# ---------------------------------------------------------------------------

def test_specials_accounting_three_way_agreement():
    vm, _ = _share_vm(spec_share=True, telemetry=True)
    manager = vm.mutation_manager
    stats = vm.mutation_stats
    counters = vm.telemetry.summary()["counters"]
    assert manager.special_versions_compiled == stats.specials_compiled
    assert stats.specials_compiled == counters["mutation.specials_compiled"]
    assert stats.specials_compiled > 0
    assert manager.specials_shared == stats.specials_shared
    assert stats.specials_shared == counters["mutation.specials_shared"]
    assert stats.specials_shared > 0
    assert (
        f"special versions: {stats.specials_compiled} "
        f"({stats.specials_shared} shared)"
    ) in manager.describe()


def test_manager_field_is_read_only_alias():
    vm, _ = _share_vm()
    with pytest.raises(AttributeError):
        vm.mutation_manager.special_versions_compiled = 99


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------

def test_pure_specials_get_memo_wrappers_and_hit(monkeypatch):
    # Memo wrappers need the IR of a freshly compiled special; a
    # cache-linked one carries none (see repro.vm.memo), so this test
    # must not run on an environment-enabled compile cache.
    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    vm, out = _share_vm(memo=True)
    rm = vm.lookup("Tariff", "rate")
    wrappers = [
        cm for cm in rm.specials.values()
        if isinstance(cm, MemoizedSpecial)
    ]
    assert wrappers  # rate's specialized body is pure
    assert all(ir_is_pure(w.inner.ir) for w in wrappers)
    assert vm.mutation_stats.memo_hits > 0
    assert vm.memo.hits == vm.mutation_stats.memo_hits
    assert vm.memo.fills > 0
    # Memoization never changes output.
    _, ref = _share_vm(memo=False)
    assert out == ref


def test_memo_off_installs_no_wrappers():
    vm, _ = _share_vm(memo=False)
    rm = vm.lookup("Tariff", "rate")
    assert not any(
        isinstance(cm, MemoizedSpecial) for cm in rm.specials.values()
    )
    assert vm.mutation_stats.memo_hits == 0


def test_impure_specials_are_never_memoized():
    vm, _ = _share_vm(memo=True, mutable=("rate", "accrue", "bump"))
    accrue = vm.lookup("Tariff", "accrue")
    # accrue writes a field: its entries (general aliases) stay bare.
    assert not any(
        isinstance(cm, MemoizedSpecial) for cm in accrue.specials.values()
    )
    bump = vm.lookup("Tariff", "bump")
    assert not any(
        isinstance(cm, MemoizedSpecial) for cm in bump.specials.values()
    )


def test_memo_invalidated_on_tib_swap(monkeypatch):
    # Memo wrappers need the IR of a freshly compiled special; a
    # cache-linked one carries none (see repro.vm.memo), so this test
    # must not run on an environment-enabled compile cache.
    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    vm, _ = _share_vm(memo=True)
    band, _tag = _slots(vm)
    rm = vm.lookup("Tariff", "rate")
    ts_slot = vm.unit.lookup_field("Main", "ts").slot
    obj = vm.jtoc.get(ts_slot).data[0]
    entry = obj.tib.entries[rm.vtable_offset]
    assert isinstance(entry, MemoizedSpecial)

    expected = entry.invoke(vm, [obj, 9])
    hits_before = vm.memo.hits
    assert entry.invoke(vm, [obj, 9]) == expected
    assert vm.memo.hits == hits_before + 1

    # Swap the object's state away and back: the class epoch moved, so
    # the old entry is dead — the next call refills instead of hitting.
    setter = vm.lookup("Tariff", "setBand")
    old_band = obj.fields[band]
    new_band = 1 - old_band
    setter.compiled.invoke(vm, [obj, new_band])
    setter.compiled.invoke(vm, [obj, old_band])
    hits_after_swap = vm.memo.hits
    entry2 = obj.tib.entries[rm.vtable_offset]
    assert entry2.invoke(vm, [obj, 9]) == expected
    assert vm.memo.hits == hits_after_swap  # miss: refilled, no hit
    assert entry2.invoke(vm, [obj, 9]) == expected
    assert vm.memo.hits == hits_after_swap + 1  # and hits again after


def test_memo_is_per_session_under_shared_code_space(monkeypatch):
    # Memo wrappers need the IR of a freshly compiled special; a
    # cache-linked one carries none (see repro.vm.memo), so this test
    # must not run on an environment-enabled compile cache.
    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    space = CodeSpace(
        compile_source(SHARE_SOURCE),
        mutation_plan=_share_plan(),
        adaptive_config=AGGRESSIVE,
        config=VMConfig(spec_share=True, memo=True),
        warmup_seed=7,
    )
    template_hits = space.vm.mutation_stats.memo_hits
    a = space.create_session(seed=7)
    b = space.create_session(seed=7)
    assert a.memo is not b.memo
    assert a.memo is not space.vm.memo
    out_a = a.run().output
    out_b = b.run().output
    assert out_a == out_b == space.warmup_output
    assert a.mutation_stats.memo_hits == b.mutation_stats.memo_hits
    assert a.mutation_stats.memo_hits > 0
    assert a.memo.entries is not b.memo.entries
    # Session traffic never charges the template.
    assert space.vm.mutation_stats.memo_hits == template_hits


# ---------------------------------------------------------------------------
# Cache environment
# ---------------------------------------------------------------------------

def test_environment_payload_carries_share_and_memo_flags():
    for spec_share, memo in ((True, True), (False, True), (True, False)):
        vm = VM(
            compile_source(SHARE_SOURCE),
            mutation_plan=_share_plan(),
            config=VMConfig(spec_share=spec_share, memo=memo),
        )
        env = environment_payload(vm)
        assert env["spec_share"] is spec_share
        assert env["memo"] is memo
