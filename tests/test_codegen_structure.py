"""The structured emitter (``repro.opt.pycodegen``) against a reference
block walker: random IR graphs built from diamonds, counted loops,
early returns, breaks and continues out of nested loops, and arbitrary
graphs (irreducible ones included); plus hand-built graphs for each
edge the plain ``if``/``while`` forms cannot express."""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.opt.ir import Const, Extra, IRFunction, IRInstr, Reg
from repro.opt.pycodegen import PyCodegen
from repro.vm.values import jx_rem

_OPS = {
    "mov": lambda a: a,
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "irem": jx_rem,
    "lt": lambda a, b: a < b,
    "gt": lambda a, b: a > b,
    "eq": lambda a, b: a == b,
}
H = Reg("l1")


def walk(fn: IRFunction, arg: int, back=frozenset()) -> tuple[int, int]:
    """Run ``fn`` block by block; returns its result and how many of
    the ``back`` edges it took."""
    regs = {"l0": arg}

    def val(operand):
        return operand.value if isinstance(operand, Const) else regs[
            operand.name]

    block, ticks = fn.entry, 0
    while True:
        for instr in fn.blocks[block].instrs:
            if instr.op == "ret":
                return val(instr.args[0]), ticks
            if instr.op == "jump":
                nxt = instr.extra.target
            elif instr.op == "br":
                nxt = (instr.extra.if_true if val(instr.args[0])
                       else instr.extra.if_false)
            else:
                regs[instr.dest.name] = _OPS[instr.op](
                    *[val(a) for a in instr.args])
        ticks += (block, nxt) in back
        block = nxt


def run(fn: IRFunction, arg: int, opt_level: int):
    """Generate ``fn`` and call it; returns ``(result, ticks, gen)``."""
    samples = SimpleNamespace(ticks=0, threshold=1 << 60)
    rm = SimpleNamespace(rclass=SimpleNamespace(name="T"),
                         info=SimpleNamespace(key="f"), samples=samples)
    vm = SimpleNamespace(intrinsic_ctx=None, jtoc=SimpleNamespace(fields=[]),
                         adaptive=SimpleNamespace(on_hot=lambda rm: None))
    gen = PyCodegen(fn, opt_level, tick_rm=rm if opt_level == 1 else None)
    source, executor = gen.generate()
    assert "_bb" not in source
    return executor(vm, [arg]), samples.ticks, gen


class Builder:
    """Compiles a small statement tree to IR, recording back edges."""

    def __init__(self) -> None:
        self.fn = IRFunction("T.f", 1, 2, True)
        self.back: set[tuple[int, int]] = set()
        self.loops: list[tuple[int, int]] = []  # (header, exit)
        self.cur = self.fn.new_block()
        self.temps = 0
        self.emit("mov", H, [Reg("l0")])

    def emit(self, op, dest, args) -> None:
        self.cur.instrs.append(IRInstr(op, dest, args))

    def temp(self) -> Reg:
        self.temps += 1
        return Reg(f"t{self.temps}")

    def jump(self, target: int, back: bool = False) -> None:
        if back:
            self.back.add((self.cur.id, target))
        self.emit("jump", None, [])
        self.cur.instrs[-1].extra = Extra(target=target)

    def branch(self, threshold: int, if_true: int, if_false: int) -> None:
        """Branch on ``l1 % 5 < threshold``."""
        rem, cond = self.temp(), self.temp()
        self.emit("irem", rem, [H, Const(5)])
        self.emit("lt", cond, [rem, Const(threshold)])
        self.cur.instrs.append(IRInstr(
            "br", None, [cond], Extra(if_true=if_true, if_false=if_false)))

    def mix(self, k: int) -> None:
        self.emit("mul", H, [H, Const(31)])
        self.emit("add", H, [H, Const(k)])
        self.emit("irem", H, [H, Const(1000003)])

    def stmts(self, tree) -> None:
        for stmt in tree:
            self.stmt(stmt)

    def stmt(self, stmt) -> None:
        kind = stmt[0]
        depth = len(self.loops)
        if kind in ("break", "continue") and depth:
            header, exit_ = self.loops[-min(stmt[1], depth)]
            nxt = self.fn.new_block()
            if kind == "break":
                taken = exit_
            else:
                taken = self.fn.new_block()
                self.back.add((taken.id, header))
                taken.instrs.append(
                    IRInstr("jump", None, [], Extra(target=header)))
                taken = taken.id
            self.branch(stmt[2], taken, nxt.id)
            self.cur = nxt
        elif kind == "return":
            ret, nxt = self.fn.new_block(), self.fn.new_block()
            self.branch(stmt[1], ret.id, nxt.id)
            value = self.temp()
            ret.instrs.append(IRInstr("add", value, [H, Const(7)]))
            ret.instrs.append(IRInstr("ret", None, [value]))
            self.cur = nxt
        elif kind == "if":
            then, other, join = (self.fn.new_block() for _ in range(3))
            self.branch(stmt[1], then.id, other.id)
            for block, arm in ((then, stmt[2]), (other, stmt[3])):
                self.cur = block
                self.stmts(arm)
                self.jump(join.id)
            self.cur = join
        elif kind == "loop":
            counter = Reg(f"c{self.temps}")
            self.temps += 1
            self.emit("mov", counter, [Const(stmt[1])])
            header, body, exit_ = (self.fn.new_block() for _ in range(3))
            self.jump(header.id)
            self.cur = header
            cond = self.temp()
            self.emit("sub", counter, [counter, Const(1)])
            self.emit("gt", cond, [counter, Const(0)])
            header.instrs.append(IRInstr(
                "br", None, [cond], Extra(if_true=body.id,
                                          if_false=exit_.id)))
            self.loops.append((header.id, exit_.id))
            self.cur = body
            self.stmts(stmt[2])
            self.jump(header.id, back=True)
            self.loops.pop()
            self.cur = exit_
        else:
            self.mix(stmt[1] if kind == "mix" else 3)

    def finish(self) -> IRFunction:
        self.emit("ret", None, [H])
        return self.fn


cond = st.integers(0, 5)
leaf = st.one_of(
    st.tuples(st.just("mix"), st.integers(1, 50)),
    st.tuples(st.just("break"), st.integers(1, 3), cond),
    st.tuples(st.just("continue"), st.integers(1, 3), cond),
    st.tuples(st.just("return"), cond),
)
programs = st.recursive(
    st.lists(leaf, min_size=1, max_size=3),
    lambda inner: st.lists(st.one_of(
        leaf,
        st.tuples(st.just("if"), cond, inner, inner),
        st.tuples(st.just("loop"), st.integers(1, 3), inner),
    ), min_size=1, max_size=4),
    max_leaves=14,
)


@given(programs, st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_structured_code_agrees_with_the_block_walker(tree, arg):
    builder = Builder()
    builder.stmts(tree)
    fn = builder.finish()
    expected, ticks = walk(fn, arg, builder.back)
    assert run(fn, arg, 1)[:2] == (expected, ticks)
    assert run(fn, arg, 2)[0] == expected


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), cond),
                min_size=1, max_size=8),
       st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_arbitrary_graphs_agree_with_the_block_walker(edges, arg):
    """Block i mixes i into the hash, returns once a fuel counter runs
    out, and otherwise branches to the blocks ``edges[i]`` names: any
    graph at all, irreducible ones included."""
    n = len(edges)
    fn = IRFunction("T.g", 1, 2, True)
    fuel = Reg("fuel")
    ret = fn.new_block()
    ret.instrs.append(IRInstr("ret", None, [H]))
    heads = [fn.new_block() for _ in range(n)]
    fn.set_entry(heads[0].id)
    heads[0].instrs.append(IRInstr("mov", fuel, [Const(20)]))
    heads[0].instrs.append(IRInstr("mov", H, [Reg("l0")]))
    start = fn.new_block()
    heads[0].instrs.append(IRInstr("jump", None, [],
                                   Extra(target=start.id)))
    for i, (a, b, threshold) in enumerate(edges):
        block = start if i == 0 else heads[i]
        go = fn.new_block()
        block.instrs += [
            IRInstr("mul", H, [H, Const(31)]),
            IRInstr("add", H, [H, Const(i + 1)]),
            IRInstr("irem", H, [H, Const(1000003)]),
            IRInstr("sub", fuel, [fuel, Const(1)]),
            IRInstr("gt", Reg(f"f{i}"), [fuel, Const(0)]),
            IRInstr("br", None, [Reg(f"f{i}")],
                    Extra(if_true=go.id, if_false=ret.id)),
        ]
        targets = [start.id] + [h.id for h in heads[1:]]
        go.instrs += [
            IRInstr("irem", Reg(f"r{i}"), [H, Const(5)]),
            IRInstr("lt", Reg(f"b{i}"), [Reg(f"r{i}"), Const(threshold)]),
            IRInstr("br", None, [Reg(f"b{i}")],
                    Extra(if_true=targets[a % n], if_false=targets[b % n])),
        ]
    expected, _ = walk(fn, arg)
    assert run(fn, arg, 1)[0] == expected
    assert run(fn, arg, 2)[0] == expected


def _graph(blocks: dict[int, list]) -> IRFunction:
    """An IRFunction from ``{id: [(op, dest, args, extra), ...]}``."""
    fn = IRFunction("T.h", 1, 4, True)
    for bid in sorted(blocks):
        block = fn.new_block()
        assert block.id == bid
        for op, dest, args, extra in blocks[bid]:
            block.instrs.append(IRInstr(
                op, Reg(dest) if dest else None,
                [a if isinstance(a, Reg) else Const(a) for a in args],
                Extra(**extra)))
    return fn


def _br(cond, if_true, if_false):
    return ("br", None, [Reg(cond)], {"if_true": if_true,
                                      "if_false": if_false})


def _jump(target):
    return ("jump", None, [], {"target": target})


L0, L1, L2, L3 = Reg("l0"), Reg("l1"), Reg("l2"), Reg("l3")


def test_irreducible_loop_is_split():
    # Two ways into the cycle 1 <-> 2: neither block dominates the other.
    fn = _graph({
        0: [("mov", "l1", [0], {}), ("gt", "t0", [L0, 5], {}),
            _br("t0", 1, 2)],
        1: [("add", "l1", [L1, 1], {}), ("lt", "t1", [L1, 10], {}),
            _br("t1", 2, 3)],
        2: [("add", "l1", [L1, 2], {}), ("lt", "t2", [L1, 10], {}),
            _br("t2", 1, 3)],
        3: [("ret", None, [L1], {})],
    })
    for arg in (0, 9):
        expected, _ = walk(fn, arg)
        for level in (1, 2):
            result, _, gen = run(fn, arg, level)
            assert result == expected
            assert gen.splits >= 1 and gen.exit_jumps == 0


def test_exit_out_of_two_loops_goes_through_the_exit_variable():
    # Block 4, inside the inner loop, jumps to block 7, the join after
    # the outer loop.
    fn = _graph({
        0: [("mov", "l1", [0], {}), ("mov", "l3", [0], {}), _jump(1)],
        1: [("lt", "t0", [L1, 3], {}), _br("t0", 2, 6)],
        2: [("mov", "l2", [0], {}), _jump(3)],
        3: [("lt", "t1", [L2, 3], {}), _br("t1", 4, 5)],
        4: [("add", "l3", [L3, 1], {}), ("add", "t2", [L1, L2], {}),
            ("eq", "t3", [Reg("t2"), L0], {}), _br("t3", 7, 8)],
        8: [("add", "l2", [L2, 1], {}), _jump(3)],
        5: [("add", "l1", [L1, 1], {}), _jump(1)],
        6: [("add", "l3", [L3, 100], {}), _jump(7)],
        7: [("mul", "t4", [L3, 1000], {}), ("add", "t5", [Reg("t4"), L1], {}),
            ("ret", None, [Reg("t5")], {})],
    })
    back = {(8, 3), (5, 1)}
    for arg in (0, 2, 4, 9):
        expected = walk(fn, arg, back)
        result, ticks, gen = run(fn, arg, 1)
        assert (result, ticks) == expected
        assert gen.exit_jumps == 1 and gen.splits == 0
        assert run(fn, arg, 2)[0] == expected[0]


def test_join_that_is_not_the_next_code_is_split():
    # ``if (a && b) l1 = 2 else l1 = 1``: block 2 joins 0 and 1, block 4
    # joins 2 and 3, so 3's jump to 4 skips 2, which comes next.
    fn = _graph({
        0: [("gt", "t0", [L0, 0], {}), _br("t0", 1, 2)],
        1: [("gt", "t1", [L0, 5], {}), _br("t1", 3, 2)],
        2: [("mov", "l1", [1], {}), _jump(4)],
        3: [("mov", "l1", [2], {}), _jump(4)],
        4: [("mul", "t2", [L1, 10], {}), ("ret", None, [Reg("t2")], {})],
    })
    for arg in (-1, 3, 6):
        expected, _ = walk(fn, arg)
        for level in (1, 2):
            result, _, gen = run(fn, arg, level)
            assert result == expected
            assert gen.splits == 1 and gen.exit_jumps == 0
