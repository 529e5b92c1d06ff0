"""Unit tests for the optimizing compiler's passes."""

from repro import VM
from repro.lang import compile_source
from repro.mutation import build_mutation_plan
from repro.opt import constprop
from repro.opt.boundselim import eliminate_bounds_checks
from repro.opt.branchfold import cleanup_cfg, merge_blocks
from repro.opt.constprop import (
    NAC,
    _meet_states,
    _transfer_instr,
    constant_propagation,
)
from repro.opt.dce import dead_code_elimination
from repro.opt.fold import NoFold, fold_op
from repro.opt.inline import Inliner
from repro.opt.ir import Const, Extra, IRFunction, IRInstr, Reg, clone_ir
from repro.opt.lowering import lower_method
from repro.opt.pipeline import OptCompiler, OptConfig
from repro.opt.simplify import simplify
from repro.opt.specialize import SpecBindings, specialize_ir, this_aliases
from repro.opt.strength import strength_reduce
from repro.vm.linker import Linker
from repro.workloads import get_workload
import pytest


def lowered(source, cls, method):
    """Compile + link, then lower one method to IR."""
    unit = compile_source(source)
    Linker(unit).link()
    return lower_method(unit.classes[cls].methods[method]), unit


def count_ops(fn: IRFunction, op: str) -> int:
    return sum(
        1
        for block in fn.block_order()
        for instr in block.instrs
        if instr.op == op
    )


SRC = """
class C {
    int state;
    int[] data;
    public int poly(int x) {
        int a = 2 + 3;
        int b = a * x;
        if (a == 5) { b = b + 1; } else { b = b - 1; }
        return b;
    }
    public int dead(int x) {
        int unused = x * 1000;
        int alive = x + 1;
        return alive;
    }
    public int dispatch() {
        if (state == 0) { return 10; }
        else if (state == 1) { return 20; }
        else { return 30; }
    }
    public int rmw(int i) {
        data[i] = data[i] + 1;
        return data[i];
    }
    public int strength(int x) {
        return x * 8 + x * 2;
    }
}
class Main { static void main() { } }
"""


def run_pipeline(fn):
    from repro.opt.cse import local_cse

    for _ in range(4):
        changed = simplify(fn)
        changed += local_cse(fn)
        changed += constant_propagation(fn)
        changed += cleanup_cfg(fn)
        changed += dead_code_elimination(fn)
        if not changed:
            break


# -- fold ---------------------------------------------------------------------

def test_fold_int_semantics():
    assert fold_op("idiv", [-7, 2]) == -3
    assert fold_op("irem", [-7, 3]) == -1
    assert fold_op("add", [1, 2]) == 3


def test_fold_refuses_div_by_zero():
    with pytest.raises(NoFold):
        fold_op("idiv", [1, 0])
    with pytest.raises(NoFold):
        fold_op("fdiv", [1.0, 0.0])


def test_fold_concat_coerces():
    assert fold_op("concat", [1, True]) == "1true"
    assert fold_op("concat", [None, 1.0]) == "null1.0"


def test_fold_eq_null():
    assert fold_op("eq", [None, None]) is True
    assert fold_op("ne", [None, "x"]) is True


# -- constant propagation + branch folding ----------------------------------

def test_constprop_folds_constant_branch():
    fn, _ = lowered(SRC, "C", "poly")
    run_pipeline(fn)
    # a == 5 is statically true: the else arm must be gone.
    assert count_ops(fn, "br") == 0
    text = fn.pretty()
    assert "sub" not in text  # b - 1 arm removed


def test_dispatch_chain_untouched_without_bindings():
    fn, _ = lowered(SRC, "C", "dispatch")
    run_pipeline(fn)
    assert count_ops(fn, "br") >= 2  # still state-dependent


# -- DCE -----------------------------------------------------------------------

def test_dce_removes_dead_computation():
    fn, _ = lowered(SRC, "C", "dead")
    before = fn.instr_count()
    run_pipeline(fn)
    assert fn.instr_count() < before
    assert count_ops(fn, "mul") == 0


def test_dce_keeps_side_effects():
    src = """
    class C {
        static int g;
        public void m() { g = 1; Sys.print("x"); }
    }
    class Main { static void main() { } }
    """
    fn, _ = lowered(src, "C", "m")
    run_pipeline(fn)
    assert count_ops(fn, "putstatic") == 1
    assert count_ops(fn, "calls") + count_ops(fn, "intr") == 1


# -- specialization -----------------------------------------------------------

def _state_slot(unit):
    return unit.lookup_field("C", "state").slot


def test_specialize_collapses_dispatch_chain():
    fn, unit = lowered(SRC, "C", "dispatch")
    replaced = specialize_ir(
        fn, SpecBindings(instance={_state_slot(unit): 1})
    )
    assert replaced >= 1
    run_pipeline(fn)
    assert count_ops(fn, "br") == 0
    assert count_ops(fn, "getfield") == 0
    # The remaining return must be the state-1 arm.
    rets = [
        instr
        for block in fn.block_order()
        for instr in block.instrs
        if instr.op == "ret"
    ]
    assert len(rets) == 1
    assert rets[0].args[0] == Const(20)


def test_specialize_skips_self_written_fields():
    src = """
    class C {
        int state;
        public int flip() {
            state = state + 1;
            if (state == 1) { return 1; }
            return 0;
        }
    }
    class Main { static void main() { } }
    """
    fn, unit = lowered(src, "C", "flip")
    slot = unit.lookup_field("C", "state").slot
    replaced = specialize_ir(fn, SpecBindings(instance={slot: 0}))
    assert replaced == 0  # method writes the field: must not specialize


def test_this_aliases_tracks_moves():
    fn, _ = lowered(SRC, "C", "dispatch")
    aliases = this_aliases(fn)
    assert "l0" in aliases

    fn = IRFunction("moves", 2, 2, False)
    fn.new_block().instrs = [
        IRInstr("mov", Reg("c"), [Reg("l0")]),
        IRInstr("mov", Reg("e"), [Reg("c")]),
        # A mov cycle: neither register is ever given ``this``.
        IRInstr("mov", Reg("a"), [Reg("b")]),
        IRInstr("mov", Reg("b"), [Reg("a")]),
        # Assigned from ``this`` and from a non-alias.
        IRInstr("mov", Reg("d"), [Reg("l0")]),
        IRInstr("mov", Reg("d"), [Reg("l1")]),
        IRInstr("ret", None, []),
    ]
    assert this_aliases(fn) == {"l0", "c", "e"}


# -- strength reduction ----------------------------------------------------------

def test_strength_reduces_power_of_two_mul():
    fn, _ = lowered(SRC, "C", "strength")
    run_pipeline(fn)
    strength_reduce(fn)
    text = fn.pretty()
    assert "shl" in text   # x * 8
    # x * 2 becomes x + x
    assert count_ops(fn, "mul") == 0


def test_strength_keeps_double_mul():
    src = """
    class C { public double m(double x) { return x * 8.0; } }
    class Main { static void main() { } }
    """
    fn, _ = lowered(src, "C", "m")
    run_pipeline(fn)
    strength_reduce(fn)
    assert count_ops(fn, "shl") == 0


# -- bounds-check elimination ------------------------------------------------------

def test_redundant_bounds_check_eliminated():
    fn, _ = lowered(SRC, "C", "rmw")
    run_pipeline(fn)
    removed = eliminate_bounds_checks(fn)
    assert removed >= 1
    checked = [
        instr.extra.bounds
        for block in fn.block_order()
        for instr in block.instrs
        if instr.op in ("aload", "astore")
    ]
    assert checked.count(False) == removed
    assert checked.count(True) >= 1  # first access stays checked


# -- clone -----------------------------------------------------------------------

def test_clone_ir_is_independent():
    fn, _ = lowered(SRC, "C", "dispatch")
    copy = clone_ir(fn)
    run_pipeline(copy)  # mutate the copy heavily
    assert fn.instr_count() != 0
    # Original unchanged: same op histogram as a fresh lowering.
    fresh, _ = lowered(SRC, "C", "dispatch")
    assert fn.instr_count() == fresh.instr_count()


def test_simplify_algebraic_identities():
    src = """
    class C { public int m(int x) { return (x + 0) * 1 - 0; } }
    class Main { static void main() { } }
    """
    fn, _ = lowered(src, "C", "m")
    run_pipeline(fn)
    assert count_ops(fn, "add") == 0
    assert count_ops(fn, "mul") == 0
    assert count_ops(fn, "sub") == 0


# -- exactness oracles -------------------------------------------------------------
#
# Constant propagation carries sparse block states and block merging
# patches predecessor lists in one pass.  The dense, restart-per-merge
# versions below are their references: every IR function the pipeline
# hands either pass on three workloads must come out of both identically.


def _dense_constant_propagation(fn: IRFunction) -> int:
    """Reference: every block state carries every assigned register, on
    a list worklist."""
    preds = fn.predecessors()
    order = [b.id for b in fn.block_order()]
    entry_state = {f"l{i}": NAC for i in range(fn.num_args)}
    in_states = {fn.entry: entry_state}
    out_states = {}

    work = list(order)
    while work:
        bid = work.pop(0)
        if bid == fn.entry:
            in_state = dict(entry_state)
        else:
            incoming = [
                out_states[p] for p in preds.get(bid, []) if p in out_states
            ]
            if not incoming:
                continue
            in_state = incoming[0]
            for other in incoming[1:]:
                in_state = _meet_states(in_state, other)
        in_states[bid] = in_state
        state = dict(in_state)
        for instr in fn.blocks[bid].instrs:
            _transfer_instr(instr, state)
        if out_states.get(bid) != state:
            out_states[bid] = state
            for s in fn.blocks[bid].successors():
                if s not in work:
                    work.append(s)

    rewritten = 0
    for bid in order:
        state = dict(in_states.get(bid, {}))
        for instr in fn.blocks[bid].instrs:
            new_args = []
            for a in instr.args:
                if isinstance(a, Reg):
                    v = state.get(a.name, NAC)
                    if v is not NAC:
                        new_args.append(Const(v))
                        rewritten += 1
                        continue
                new_args.append(a)
            instr.args = new_args
            _transfer_instr(instr, state)
    return rewritten


def _restart_merge_blocks(fn: IRFunction) -> int:
    """Reference: merge the first mergeable block in reverse postorder,
    then recompute predecessors and the order and start over."""
    changed = 0
    while True:
        preds = fn.predecessors()
        for block in list(fn.block_order()):
            if block.id not in fn.blocks:
                continue
            term = block.terminator
            if term.op != "jump":
                continue
            target = term.extra.target
            if target == block.id or target == fn.entry:
                continue
            if len(preds.get(target, [])) != 1:
                continue
            fn.set_instrs(block, block.instrs[:-1] + fn.blocks[target].instrs)
            fn.remove_block(target)
            changed += 1
            break
        else:
            return changed


#: jxbench's smoke scales.
ORACLE_WORKLOADS = (("java2xhtml", 0.01), ("jbb2005", 0.02),
                    ("salarydb", 0.05))


@pytest.fixture(scope="module")
def oracle_programs():
    """``(source, entry, plan)`` of each oracle workload."""
    programs = []
    for name, scale in ORACLE_WORKLOADS:
        spec = get_workload(name)
        source = spec.source(scale)
        entry = dict(entry_class=spec.entry_class,
                     entry_method=spec.entry_method)
        programs.append((source, entry, build_mutation_plan(source, **entry)))
    return programs


def _run_oracle_programs(mp, programs):
    """Run each oracle workload with its plan (general, special and OSR
    compiles); returns each run's total code bytes."""
    # A compile cache would link methods instead of compiling them.
    mp.delenv("JX_CACHE_DIR", raising=False)
    code_bytes = []
    for source, entry, plan in programs:
        vm = VM(compile_source(source, **entry), mutation_plan=plan)
        vm.run()
        code_bytes.append(vm.compile_stats.total_code_bytes)
    return code_bytes


@pytest.fixture(scope="module")
def pipeline_inputs(oracle_programs):
    """Clones of every IR function the pipeline hands to constant
    propagation and to block merging while it compiles the oracle
    workloads."""
    import repro.opt.branchfold as branchfold
    import repro.opt.pipeline as pipeline

    seen = {"constprop": [], "merge": []}

    def capture(kind, real):
        def wrapper(fn):
            seen[kind].append(clone_ir(fn))
            return real(fn)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "constant_propagation",
                   capture("constprop", pipeline.constant_propagation))
        mp.setattr(branchfold, "merge_blocks",
                   capture("merge", branchfold.merge_blocks))
        _run_oracle_programs(mp, oracle_programs)
    return seen


def test_constprop_matches_dense_reference_on_workloads(pipeline_inputs):
    fns = pipeline_inputs["constprop"]
    assert len(fns) > 100
    for fn in fns:
        ref, new = clone_ir(fn), clone_ir(fn)
        assert constant_propagation(new) == \
            _dense_constant_propagation(ref), fn.name
        assert new.pretty() == ref.pretty(), fn.name


def test_merge_blocks_matches_restart_reference_on_workloads(
        pipeline_inputs):
    fns = pipeline_inputs["merge"]
    assert len(fns) > 100
    merged = 0
    for fn in fns:
        ref, new = clone_ir(fn), clone_ir(fn)
        count = merge_blocks(new)
        assert count == _restart_merge_blocks(ref), fn.name
        assert new.pretty() == ref.pretty(), fn.name
        assert list(new.blocks) == list(ref.blocks), fn.name
        merged += count
    assert merged > 0


def _jump(target):
    return IRInstr("jump", None, [], Extra(target=target.id))


def _br(cond, if_true, if_false):
    return IRInstr("br", None, [cond],
                   Extra(if_true=if_true.id, if_false=if_false.id))


def test_constprop_loop_join_and_block_local_temps(monkeypatch):
    """``l1`` is carried around the loop (0, then l1 + 5): not folded.
    ``l3`` is 5 on both paths into the loop header: folded.  ``t0`` and
    ``t1`` are read only in the block that writes them, and only a load
    defines ``l2``: none of them ever enters a block state."""
    fn = IRFunction("loop", 1, 4, True)
    entry, left, right, head, body, exit_ = (
        fn.new_block() for _ in range(6)
    )
    entry.instrs = [
        IRInstr("mov", Reg("l1"), [Const(0)]),
        IRInstr("getfield", Reg("l2"), [Reg("l0")], Extra(slot=0)),
        IRInstr("add", Reg("t0"), [Reg("l0"), Const(1)]),
        _br(Reg("t0"), left, right),
    ]
    left.instrs = [IRInstr("mov", Reg("l3"), [Const(5)]), _jump(head)]
    right.instrs = [IRInstr("mov", Reg("l3"), [Const(5)]), _jump(head)]
    head.instrs = [
        IRInstr("lt", Reg("t1"), [Reg("l1"), Const(10)]),
        _br(Reg("t1"), body, exit_),
    ]
    body.instrs = [
        IRInstr("add", Reg("l1"), [Reg("l1"), Reg("l3")]),
        _jump(head),
    ]
    exit_.instrs = [
        IRInstr("putfield", None, [Reg("l0"), Reg("l2")], Extra(slot=0)),
        IRInstr("ret", None, [Reg("l1")]),
    ]
    ref = clone_ir(fn)

    met = []

    def spy(a, b):
        met.extend((a, b))
        return _meet_states(a, b)

    monkeypatch.setattr(constprop, "_meet_states", spy)
    assert constant_propagation(fn) == 1
    assert _dense_constant_propagation(ref) == 1
    assert fn.pretty() == ref.pretty()
    assert body.instrs[0].args == [Reg("l1"), Const(5)]
    assert head.instrs[0].args == [Reg("l1"), Const(10)]
    assert exit_.instrs[1].args == [Reg("l1")]
    assert met, "the loop header is a join"
    assert all(not {"t0", "t1", "l2"} & set(st) for st in met)


# -- cost pins ---------------------------------------------------------------------

def _count_walks(monkeypatch, fn_filter=lambda fn: True):
    """Count real CFG walks, not requests for the cached order."""
    walks = []
    real = IRFunction._walk

    def walk(self):
        if fn_filter(self):
            walks.append(self)
        return real(self)

    monkeypatch.setattr(IRFunction, "_walk", walk)
    return walks


def test_merge_blocks_collapses_a_jump_chain_in_two_walks(monkeypatch):
    fn = IRFunction("chain", 0, 0, False)
    blocks = [fn.new_block() for _ in range(200)]
    for i, block in enumerate(blocks[:-1]):
        block.instrs = [
            IRInstr("mov", Reg(f"t{i}"), [Const(i)]),
            _jump(blocks[i + 1]),
        ]
    blocks[-1].instrs = [IRInstr("ret", None, [])]
    ref = clone_ir(fn)
    assert _restart_merge_blocks(ref) == 199

    walks = _count_walks(monkeypatch)
    assert merge_blocks(fn) == 199
    assert len(walks) <= 2
    assert list(fn.blocks) == [0] and len(fn.blocks[0].instrs) == 200
    assert fn.pretty() == ref.pretty()


def test_inliner_walks_once_per_site_scan(monkeypatch):
    """Without lifetime constants no call site consults register
    producers or ``this`` aliases, so a scan is one CFG walk and
    ``this_aliases`` never runs."""
    import repro.opt.inline as inline

    monkeypatch.delenv("JX_CACHE_DIR", raising=False)
    roots = []
    active = []
    walks = _count_walks(monkeypatch, lambda fn: fn in active)
    scans = []
    real_run, real_find = Inliner.run, Inliner._find_site

    def run(self):
        roots.append(self.fn)
        active.append(self.fn)
        try:
            return real_run(self)
        finally:
            active.pop()

    def find_site(self):
        scans.append(self.fn)
        return real_find(self)

    aliases = []
    real_aliases = inline.this_aliases
    monkeypatch.setattr(Inliner, "run", run)
    monkeypatch.setattr(Inliner, "_find_site", find_site)
    monkeypatch.setattr(
        inline, "this_aliases",
        lambda fn: aliases.append(fn) or real_aliases(fn),
    )
    spec = get_workload("java2xhtml")
    source = spec.source(0.01)
    entry = dict(entry_class=spec.entry_class,
                 entry_method=spec.entry_method)
    vm = VM(compile_source(source, **entry),
            mutation_plan=build_mutation_plan(source, **entry))
    vm.run()
    assert vm.lifetime_constants == {}
    assert roots and len(scans) > len(roots), "some site was inlined"
    assert len(walks) == len(scans)
    assert aliases == []


# -- reuse oracles -------------------------------------------------------------
#
# The compiler reuses what has not changed: each function's block order
# and predecessor lists until its graph is edited, the inliner's lowered
# callees and CHA answers within one compile, and opt2's first sweep
# when nothing after it can change the IR.  The references below compute
# everything afresh, as the compiler did before it reused anything.


def _fresh_predecessors(fn: IRFunction) -> dict[int, list[int]]:
    """Reference: predecessor lists from a fresh walk."""
    order = fn._walk()
    preds = {block.id: [] for block in order}
    for block in order:
        for s in block.successors():
            preds[s].append(block.id)
    return preds


class _Forgetful(dict):
    """Reference inliner memo: remembers nothing."""

    def __setitem__(self, key, value):
        pass


def _compile_oracle_programs(programs, max_iterations, reference):
    """Every generated source of the oracle workloads' runs, in compile
    order, and each run's total code bytes; with ``reference``, through
    the references instead of the reuses."""
    import repro.opt.pipeline as pipeline

    sources = []
    real_compiler_init = OptCompiler.__init__
    real_compile = OptCompiler._compile
    real_init = Inliner.__init__

    def compiler_init(self, vm, config=None):
        real_compiler_init(self, vm, OptConfig(max_iterations=max_iterations))

    def compile_(self, rm, opt_level, bindings, entry_pc):
        cm = real_compile(self, rm, opt_level, bindings, entry_pc)
        sources.append((rm.info.qualified_name, opt_level,
                        bindings.label if bindings else None, entry_pc,
                        cm.source_text))
        return cm

    def two_sweeps(self, fn):
        self._run_core_pipeline(fn)
        self._pass("strength", pipeline.strength_reduce, fn)
        self._pass("boundselim", pipeline.eliminate_bounds_checks, fn)
        self._run_core_pipeline(fn)

    def forgetful_inliner(self, *args):
        real_init(self, *args)
        self._lowered, self._cha = _Forgetful(), _Forgetful()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OptCompiler, "__init__", compiler_init)
        mp.setattr(OptCompiler, "_compile", compile_)
        if reference:
            mp.setattr(IRFunction, "block_order", IRFunction._walk)
            mp.setattr(IRFunction, "predecessors", _fresh_predecessors)
            mp.setattr(pipeline, "constant_propagation",
                       _dense_constant_propagation)
            mp.setattr(OptCompiler, "_run_opt2_passes", two_sweeps)
            mp.setattr(Inliner, "__init__", forgetful_inliner)
        code_bytes = _run_oracle_programs(mp, programs)
    return sources, code_bytes


@pytest.mark.parametrize("max_iterations", [5, 1])
def test_reuses_generate_the_same_code_as_the_references(
        oracle_programs, max_iterations):
    """With one iteration per sweep, opt2's first sweep mostly stops
    short of its fixpoint, so its second sweep must still run."""
    shipped, reference = (
        _compile_oracle_programs(oracle_programs, max_iterations, ref)
        for ref in (False, True)
    )
    assert len(shipped[0]) > 50
    assert shipped == reference


def test_inliner_memo_keeps_each_callee_as_lowered(oracle_programs):
    """Lifetime-constant specialization works on a clone: after every
    splice, each memoised callee still equals a fresh lowering.  (An
    OSR compile that raises is a miss the VM swallows, so mismatches
    are collected, not asserted where they are found.)"""
    specialized, changed = [], []
    real_splice = Inliner._inline_site

    def splice(self, block_id, index, target_rm, olc):
        real_splice(self, block_id, index, target_rm, olc)
        specialized.append(olc is not None)
        changed.extend(
            rm.info.qualified_name for rm, callee in self._lowered.items()
            if callee.pretty() != lower_method(rm.info).pretty()
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Inliner, "_inline_site", splice)
        _run_oracle_programs(mp, oracle_programs)
    assert any(specialized) and not all(specialized)
    assert changed == []


def test_cached_cfg_order_is_never_stale(oracle_programs):
    """After every optimizer pass and every inliner splice, a cached
    order and cached predecessor lists equal a fresh walk's (collected,
    since the VM swallows an OSR compile that raises)."""
    checked, stale = [], []

    def check(fn):
        if fn._order is not None:
            fresh = fn._walk()
            if ([b.id for b in fn._order] != [b.id for b in fresh]
                    or any(fn.blocks.get(b.id) is not b
                           for b in fn._order)):
                stale.append(fn.name)
            checked.append(fn)
        if fn._preds is not None and fn._preds != _fresh_predecessors(fn):
            stale.append(fn.name)

    real_pass, real_splice = OptCompiler._pass, Inliner._inline_site

    def pass_(self, name, pass_fn, fn):
        result = real_pass(self, name, pass_fn, fn)
        if isinstance(fn, IRFunction):
            check(fn)
        elif isinstance(result, IRFunction):
            check(result)
        return result

    def splice(self, *args):
        real_splice(self, *args)
        check(self.fn)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OptCompiler, "_pass", pass_)
        mp.setattr(Inliner, "_inline_site", splice)
        _run_oracle_programs(mp, oracle_programs)
    assert len(checked) > 500
    assert stale == []


def test_graph_edits_drop_the_cached_order():
    """Each edit that can change the graph drops the cached order and
    predecessor lists; adding a block or deleting an unreachable one
    leaves them valid."""
    fn = IRFunction("edits", 1, 1, False)
    a, b, c, d = (fn.new_block() for _ in range(4))
    a.instrs = [_br(Reg("l0"), b, c)]
    b.instrs = [_jump(d)]
    c.instrs = [_jump(d)]
    d.instrs = [IRInstr("ret", None, [])]

    def fresh(expected):
        assert [x.id for x in fn.block_order()] == expected
        assert [x.id for x in fn._walk()] == expected
        assert fn.predecessors() == _fresh_predecessors(fn)

    fresh([a.id, c.id, b.id, d.id])
    fn.retarget(a.terminator, "if_false", b.id)
    fresh([a.id, b.id, d.id])
    assert fn.predecessors()[b.id] == [a.id, a.id]
    fn.remove_block(c.id)
    fresh([a.id, b.id, d.id])
    fn.set_terminator(a, _jump(b))
    fresh([a.id, b.id, d.id])
    e = fn.new_block()
    e.instrs = [_jump(d)]
    fresh([a.id, b.id, d.id])
    fn.set_instrs(b, [_jump(e)])
    fresh([a.id, b.id, e.id, d.id])
    fn.set_entry(b.id)
    fresh([b.id, e.id, d.id])
