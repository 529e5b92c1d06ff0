"""The opt1/opt2 backend: IR -> Python source -> executable function.

This is JxVM's "native code": each IR instruction becomes one or two
Python statements, compiled once with :func:`compile`/``exec`` and then
invoked directly.  Both optimizing tiers, specials and OSR
continuations use it; they differ only in the pass schedule that built
the IR (:mod:`repro.opt.pipeline`).  Specialized methods whose dispatch
chains were folded away become tiny straight-line Python functions —
which is what makes the paper's speedups observable on this substrate.

Code shape: nested ``if``/``while``, translated from the dominator tree
(Ramsey, "Beyond Relooper", ICFP 2022) into Python's only jumps,
single-level ``break`` and ``continue``.  A natural loop is a
``while True:`` whose back edges ``continue``; a block goes in the arm
that branches to it, after the ``if`` whose arms join there, or after
the loop it leaves, behind ``break``.  An exit out of two or more loops
sets ``_exit``, which each loop it leaves tests right after itself; a
join that is not the next code, and a cycle with several ways in, are
split (emitted once per way in).  Runtime objects (runtime classes,
JTOC cells, intrinsics, mutation hooks) are pinned into the function's
globals, so the generated source is fully self-contained and cacheable.

Code below the top tier keeps feeding the adaptive system: every taken
back edge adds one tick to the method's samples and asks for promotion
once they cross the threshold, so hot methods climb from opt1 to opt2.

Null-pointer checks are delegated to Python: dereferencing ``None``
raises ``AttributeError``, which the function-level handler converts to
the VM's NullPointerError.  Bounds checks are explicit (Python's
negative indexing would silently wrap).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, NamedTuple

from repro.cache.artifact import UnlinkableArtifact, encode_value, hook_ref
from repro.opt.cfg import (immediate_dominators, natural_loops,
                           reverse_postorder)
from repro.opt.ir import Const, IRFunction, IRInstr, Operand, Reg, clone_ir
from repro.vm.values import (
    ArrayBoundsError,
    ClassCastError,
    NullPointerError,
    VMArray,
    jx_rem,
    jx_str,
    jx_truncate_div,
)

#: Ops emitted as ``dest = <expression>`` (``{tn}``: ``instanceof``'s
#: pinned type name); a branch condition one of them computes for that
#: branch alone is folded into the ``if``.
_EXPR_FMT = {
    "mov": "{0}",
    "add": "{0} + {1}",
    "sub": "{0} - {1}",
    "mul": "{0} * {1}",
    "shl": "{0} << {1}",
    "shr": "{0} >> {1}",
    "band": "{0} & {1}",
    "bor": "{0} | {1}",
    "bxor": "{0} ^ {1}",
    "lt": "{0} < {1}",
    "le": "{0} <= {1}",
    "gt": "{0} > {1}",
    "ge": "{0} >= {1}",
    "idiv": "_idiv({0}, {1})",
    "fdiv": "_fdiv({0}, {1})",
    "irem": "_irem({0}, {1})",
    # VMObject and VMArray define no __eq__, so Python's == is identity
    # on references and value equality on primitives: the Jx rule.
    "eq": "{0} == {1}",
    "ne": "{0} != {1}",
    "concat": "_jstr({0}) + _jstr({1})",
    "neg": "-{0}",
    "not": "not {0}",
    "i2d": "float({0})",
    "d2i": "int({0})",
    "getfield": "{0}.fields[{slot}]",
    "getstatic": "_sf[{slot}]",
    "arraylen": "len({0}.data)",
    "instanceof": ("{0} is not None and {tn} in "
                   "{0}.tib.type_info.all_supertypes"),
}


def _py_fdiv(a: float, b: float) -> float:
    if b == 0:
        if a == 0:
            return float("nan")
        return float("inf") if a > 0 else float("-inf")
    return a / b


def _negate(cond: str) -> str:
    return f"not {cond}" if cond.isidentifier() else f"not ({cond})"


class _Layout:
    """Where each block of one body goes in the structured source:
    ``inline`` blocks in the arm of their one forward predecessor,
    ``seq[x]`` (joins) in order after block ``x``'s code, ``after[h]``
    in order after loop ``h``'s ``while``.  ``fold`` blocks compute
    their branch condition right before the branch, for it alone.
    ``irreducible``: a retreating edge that is no back edge, if there
    is one (then no block is placed)."""

    def __init__(self, fn: IRFunction) -> None:
        entry, order, preds = fn.graph()
        self.blocks = blocks = fn.blocks
        idom = immediate_dominators(entry, order, preds)
        self.loops = loops = dict(natural_loops(entry, order, preds, idom))
        # A retreating edge is a back edge iff the loop its target heads
        # holds its source: a loop holds only blocks its header dominates.
        index = {b: i for i, b in enumerate(order)}
        self.irreducible = next((
            (b, s) for b in order for s in blocks[b].successors()
            if index[s] <= index[b] and b not in loops.get(s, ())), None)
        if self.irreducible:
            return
        size = dict.fromkeys(order, 1)  # blocks in each dominance region
        for b in reversed(order[1:]):  # every idom comes first in order
            size[idom[b]] += size[b]  # type: ignore[index]
        inner: dict[int, int] = {}  # block -> innermost loop header
        parent: dict[int, int | None] = {}  # loop -> enclosing loop
        for h in sorted(loops, key=lambda h: -len(loops[h])):
            parent[h] = inner.get(h)
            for b in loops[h]:
                inner[b] = h
        fwd = {y: sum(p not in loops.get(y, ()) for p in preds[y])
               for y in order}
        self.inline: set[int] = set()
        self.seq: dict[int, list[int]] = {b: [] for b in order}
        self.after: dict[int, list[int]] = {h: [] for h in loops}
        for y in order[1:]:
            # The loop holding y's code (a header's ``while`` is in the
            # loop around it) and the one holding its idom's.
            home = parent[y] if y in loops else inner.get(y)
            loop = inner.get(idom[y])  # type: ignore[arg-type]
            if loop == home:
                if fwd[y] == 1:
                    self.inline.add(y)
                else:
                    self.seq[idom[y]].append(y)  # type: ignore[index]
                continue
            while parent[loop] != home:  # type: ignore[index]
                loop = parent[loop]  # type: ignore[index]
            self.after[loop].append(y)  # type: ignore[index]
        for h, ys in self.after.items():
            # Joins follow the loop; with none, the largest exit a plain
            # ``break`` reaches does, and the others (which only return
            # if it is the loop's one way out) stay inline.
            after = [y for y in ys if fwd[y] > 1] or sorted(
                (y for y in ys if inner.get(idom[y]) == h),  # type: ignore
                key=lambda y: -size[y])[:1]
            self.inline.update(y for y in ys if y not in after)
            ys[:] = after
        uses = Counter(a.name for b in order for i in blocks[b].instrs
                       for a in i.args if isinstance(a, Reg))
        self.fold = {
            b for b in order if len(blocks[b].instrs) > 1
            and _folds(*blocks[b].instrs[-2:], uses)}


def _folds(prev: IRInstr, term: IRInstr, uses: Counter) -> bool:
    return (term.op == "br" and term.extra.if_true != term.extra.if_false
            and prev.op in _EXPR_FMT and prev.dest is not None
            and term.args[0] == prev.dest and uses[prev.dest.name] == 1)


class _Loop(NamedTuple):
    """An open ``while``: its header, the block ``break`` reaches, and
    the exits out of two or more loops it tests right after itself."""

    header: int
    brk: int | None
    exits: dict[int, None]


def _split(fn: IRFunction, b: int, s: int) -> None:
    """Node splitting for the retreating edge ``b -> s`` that ``s`` does
    not dominate.  In the smallest cycle through both with several ways
    in (a cycle with one way in is peeled of it), each way in but the
    first gets a copy of the blocks it reaches before the first."""
    order = [block.id for block in fn.block_order()]
    preds = fn.predecessors()

    def reach(start: int, step: Callable[[int], list[int]],
              within: set[int]) -> set[int]:
        return set(reverse_postorder(
            start, lambda v: [w for w in step(v) if w in within]))

    def succs(v: int) -> list[int]:
        return fn.blocks[v].successors()

    nodes = set(order)
    while True:
        cycle = reach(s, succs, nodes) & reach(s, preds.__getitem__, nodes)
        ins = [v for v in order if v in cycle and (
            v == fn.entry or any(p not in cycle for p in preds[v]))]
        if len(ins) > 1:
            break
        nodes = cycle - set(ins)
    for v in ins[1:]:
        copy = {w: fn.new_block().id
                for w in reach(v, succs, cycle - {ins[0]})}
        for w, c in copy.items():
            instrs = [instr.copy() for instr in fn.blocks[w].instrs]
            _retarget(fn, instrs[-1], copy)
            fn.set_instrs(fn.blocks[c], instrs)
        for p in preds[v]:
            if p not in cycle:
                _retarget(fn, fn.blocks[p].terminator, {v: copy[v]})


def _retarget(fn: IRFunction, term: IRInstr, to: dict[int, int]) -> None:
    for edge in ("target", "if_true", "if_false"):
        if getattr(term.extra, edge) in to:
            fn.retarget(term, edge, to[getattr(term.extra, edge)])


class PyCodegen:
    """Generates one Python function from one IRFunction."""

    def __init__(
        self,
        fn: IRFunction,
        opt_level: int = 2,
        func_name: str = "_jx",
        tick_rm: Any = None,
    ) -> None:
        self.fn = fn
        self.opt_level = opt_level
        self.func_name = func_name
        #: The method whose samples taken back-edges tick (code below
        #: the top tier); ``None`` emits no ticks.
        self.tick_rm = tick_rm
        self._tick_pin: str | None = None
        self.globals: dict[str, Any] = {
            "_idiv": jx_truncate_div,
            "_irem": jx_rem,
            "_fdiv": _py_fdiv,
            "_jstr": jx_str,
            "_VMArray": VMArray,
            "_NPE": NullPointerError,
            "_OOB": ArrayBoundsError,
            "_CAST": ClassCastError,
        }
        self._pin_counter = 0
        self.lines: list[str] = []
        #: Pin name -> symbolic descriptor, for the compile cache; a pin
        #: without one makes the function uncacheable (never mis-linked).
        self.pin_refs: dict[str, list] = {}
        self.uncacheable: list[str] = []
        #: The compiled code object (set by :meth:`generate`).
        self.code: Any = None
        #: Node splits, and exits through ``_exit``: both 0 on every body
        #: the shipped programs emit.
        self.splits = 0
        self.exit_jumps = 0
        self._layout: _Layout | None = None
        self._frames: list[_Loop] = []

    # -- helpers -----------------------------------------------------------

    def _pin(self, prefix: str, obj: Any, ref: list | None = None) -> str:
        name = f"_{prefix}{self._pin_counter}"
        self._pin_counter += 1
        self.globals[name] = obj
        if ref is not None:
            self.pin_refs[name] = ref
        else:
            self.uncacheable.append(f"{prefix}: {obj!r}")
        return name

    @staticmethod
    def _value_ref(value: Any) -> list | None:
        try:
            return ["value", encode_value(value)]
        except UnlinkableArtifact:
            return None

    @staticmethod
    def _reg(reg: Reg) -> str:
        return "v_" + reg.name

    def _operand(self, operand: Operand) -> str:
        if isinstance(operand, Const):
            value = operand.value
            if isinstance(value, float):
                # repr covers inf/nan incorrectly; pin those.
                if value != value or value in (float("inf"), float("-inf")):
                    return self._pin("c", value, self._value_ref(value))
                return repr(value)
            if isinstance(value, (bool, int, str)) or value is None:
                return repr(value)
            return self._pin("c", value, self._value_ref(value))
        return self._reg(operand)

    def _emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    # -- instruction emission --------------------------------------------------

    def _expr(self, instr: IRInstr, args: list[str]) -> str:
        """The expression an :data:`_EXPR_FMT` instruction computes."""
        rc = instr.extra.rc
        tn = (self._pin("tn", rc.name, ["value", rc.name])
              if instr.op == "instanceof" else None)
        return _EXPR_FMT[instr.op].format(*args, slot=instr.extra.slot, tn=tn)

    def _emit_instr(self, instr: IRInstr, indent: int) -> None:
        op = instr.op
        args = [self._operand(a) for a in instr.args]
        dest = self._reg(instr.dest) if instr.dest is not None else None
        E = self._emit
        if op in _EXPR_FMT:
            E(indent, f"{dest} = {self._expr(instr, args)}")
        elif op == "putfield":
            E(indent, f"{args[0]}.fields[{instr.extra.slot}] = {args[1]}")
            if instr.extra.hook is not None:
                hook = self._pin("hook", instr.extra.hook,
                                 hook_ref(instr.extra.hook))
                E(indent, f"{hook}(vm, {args[0]})")
        elif op == "putstatic":
            E(indent, f"_sf[{instr.extra.slot}] = {args[0]}")
            if instr.extra.hook is not None:
                hook = self._pin("hook", instr.extra.hook,
                                 hook_ref(instr.extra.hook))
                E(indent, f"{hook}(vm, None)")
        elif op == "new":
            rc = self._pin("rc", instr.extra.rc,
                           ["class", instr.extra.rc.name])
            E(indent, f"{dest} = {rc}.allocate(vm)")
        elif op == "newarray":
            fill = self._pin("fill", instr.extra.fill,
                             self._value_ref(instr.extra.fill))
            E(
                indent,
                f"{dest} = _VMArray({instr.extra.elem!r}, {args[0]}, {fill})",
            )
            E(
                indent,
                f"vm.heap.record_array({args[0]}, {instr.extra.elem!r})",
            )
        elif op == "aload":
            if instr.extra.bounds:
                E(
                    indent,
                    f"if not 0 <= {args[1]} < len({args[0]}.data): "
                    f"raise _OOB('index ' + str({args[1]}) + ' out of range')",
                )
            E(indent, f"{dest} = {args[0]}.data[{args[1]}]")
        elif op == "astore":
            if instr.extra.bounds:
                E(
                    indent,
                    f"if not 0 <= {args[1]} < len({args[0]}.data): "
                    f"raise _OOB('index ' + str({args[1]}) + ' out of range')",
                )
            E(indent, f"{args[0]}.data[{args[1]}] = {args[2]}")
        elif op == "checkcast":
            name = self._pin("tn", instr.extra.rc.name,
                             ["value", instr.extra.rc.name])
            E(
                indent,
                f"if {args[0]} is not None and {name} not in "
                f"{args[0]}.tib.type_info.all_supertypes: "
                f"raise _CAST('cannot cast to ' + {name})",
            )
        elif op == "callv":
            call = (
                f"{args[0]}.tib.entries[{instr.extra.offset}]"
                f".invoke(vm, [{', '.join(args)}])"
            )
            E(indent, f"{dest} = {call}" if dest else call)
        elif op == "calls":
            cls, _, key = instr.extra.cell.qualified_name.partition(".")
            cell = self._pin("cell", instr.extra.cell,
                             ["cell", cls, key])
            call = f"{cell}.compiled.invoke(vm, [{', '.join(args)}])"
            E(indent, f"{dest} = {call}" if dest else call)
        elif op == "callsp":
            target = instr.extra.rm
            rm = self._pin("rm", target,
                           ["method", target.rclass.name, target.info.key])
            call = f"{rm}.compiled.invoke(vm, [{', '.join(args)}])"
            E(indent, f"{dest} = {call}" if dest else call)
        elif op == "calli":
            call = (
                f"{args[0]}.tib.imt.dispatch({args[0]}, "
                f"{instr.extra.slot}, {instr.extra.key!r})"
                f".invoke(vm, [{', '.join(args)}])"
            )
            E(indent, f"{dest} = {call}" if dest else call)
        elif op == "intr":
            ifn = self._pin("ifn", instr.extra.intrinsic.fn,
                            ["intrinsic", instr.extra.intrinsic.name])
            call = f"{ifn}(_ctx, {', '.join(args)})" if args else f"{ifn}(_ctx)"
            E(indent, f"{dest} = {call}" if dest else call)
        elif op == "hookcall":
            spec = getattr(instr.extra.hook, "inline_spec", None)
            if spec is not None and spec[0] == "single":
                # Inline the single-state-field TIB re-evaluation: the
                # common per-allocation path gets no function call at
                # all.  The swap count goes to the *invoking* vm's
                # mutation_stats — the same field every other swap path
                # updates, and per-session in shared code spaces.
                _, rc, slot, table, class_tib = spec
                obj = args[0]
                rc_p = self._pin("rc", rc, ["class", rc.name])
                tbl_p = self._pin("tbl", table, ["tib_table1", rc.name])
                ctib_p = self._pin("ctib", class_tib,
                                   ["class_tib", rc.name])
                E(indent, f"if {obj}.tib.type_info is {rc_p}:")
                E(indent + 1,
                  f"_nt = {tbl_p}.get({obj}.fields[{slot}], {ctib_p})")
                E(indent + 1, f"if {obj}.tib is not _nt:")
                E(indent + 2, f"{obj}.tib = _nt")
                E(indent + 2, "vm.mutation_stats.tib_swaps += 1")
            else:
                hook = self._pin("hook", instr.extra.hook,
                                 hook_ref(instr.extra.hook))
                E(indent, f"{hook}(vm, {args[0]})")
        elif op == "deoptcheck":
            # Mid-frame deopt guard (repro.vm.osr): the preceding state
            # write re-evaluated the receiver's TIB; if it moved off the
            # specialized-for special TIB, this frame's speculation is
            # stale — hand the live locals back to the interpreter at
            # the recorded pc.  Fast path is one identity test.
            from repro.vm.osr import deopt_to_interpreter

            ex = instr.extra
            tib = ex.tib
            try:
                tib_ref = [
                    "special_tib",
                    tib.type_info.name,
                    [encode_value(v) for v in tib.state],
                ]
            except UnlinkableArtifact:
                tib_ref = None
            tib_p = self._pin("tib", tib, tib_ref)
            rm_p = self._pin(
                "rm", ex.rm, ["method", ex.rm.rclass.name, ex.rm.info.key]
            )
            dfn = self._pin("dfn", deopt_to_interpreter, ["osr_deopt"])
            by_slot = {k: args[1 + j] for j, k in enumerate(ex.live)}
            frame = ", ".join(
                by_slot.get(i, "None") for i in range(self.fn.max_locals)
            )
            E(indent, f"if {args[0]}.tib is not {tib_p}:")
            E(indent + 1, f"return {dfn}(vm, {rm_p}, {ex.pc}, [{frame}])")
        elif op == "ret":
            E(indent, f"return {args[0]}" if args else "return None")
        else:  # pragma: no cover
            raise AssertionError(f"cannot codegen IR op {op!r}")

    # -- control flow ------------------------------------------------------------

    def _region(self, x: int, follow: int | None, indent: int) -> None:
        """Emit block ``x`` and the blocks placed in its dominance region
        (loop ``x``'s body, not its ``while``, when ``x`` heads the
        innermost open loop); code that falls off the end goes on to
        ``follow``."""
        layout, frames = self._layout, self._frames
        while True:
            if x in layout.loops and not (frames and frames[-1].header == x):
                chain = layout.after[x]
                self._loop(x, chain[0] if chain else follow, indent)
            else:
                chain = layout.seq[x]
                self._node(x, chain[0] if chain else follow, indent)
            for y, nxt in zip(chain, chain[1:]):
                self._region(y, nxt, indent)
            if not chain:
                return
            x = chain[-1]  # the last one's follow is ours

    def _loop(self, h: int, brk: int | None, indent: int) -> None:
        frame = _Loop(h, brk, {})
        self._frames.append(frame)
        mark = len(self.lines)
        self._emit(indent, "while True:")
        self._region(h, h, indent + 1)
        if len(self.lines) == mark + 1:
            self._emit(indent + 1, "pass")
        self._frames.pop()
        if frame.exits:
            self.lines.insert(mark, "    " * indent + "_exit = None")
        for target in frame.exits:
            self._emit(indent, f"if _exit == {target}:")
            self._branch(None, target, brk, indent + 1)

    def _node(self, x: int, follow: int | None, indent: int) -> None:
        """Emit block ``x`` itself, ending in its terminator's jumps."""
        block = self._layout.blocks[x]
        for instr in block.instrs[:-2 if x in self._layout.fold else -1]:
            self._emit_instr(instr, indent)
        targets = set(block.successors())
        if not targets:
            self._emit_instr(block.terminator, indent)
        elif len(targets) == 1:
            self._branch(x, targets.pop(), follow, indent)
        else:
            self._if(x, follow, indent)

    def _if(self, x: int, follow: int | None, indent: int) -> None:
        """Emit block ``x``'s two-way branch: a ``break`` out of the loop
        goes first, so the other arm needs no ``else:``, and an else-arm
        that is a lone ``if`` continues an ``elif`` chain."""
        layout, E = self._layout, self._emit
        keyword = "if"
        while True:
            instrs = layout.blocks[x].instrs
            cond = (self._expr(instrs[-2], [self._operand(a) for a in
                                            instrs[-2].args])
                    if x in layout.fold else self._operand(instrs[-1].args[0]))
            t, f = instrs[-1].extra.if_true, instrs[-1].extra.if_false
            if t == follow or keyword == "if" and self._frames and (
                    f == self._frames[-1].brk != follow):
                t, f, cond = f, t, _negate(cond)
            E(indent, f"{keyword} {cond}:")
            self._branch(x, t, follow, indent + 1)
            if self.lines[-1] == "    " * indent + f"{keyword} {cond}:":
                E(indent + 1, "pass")
            if (f in layout.inline and f in layout.fold and len(
                    layout.blocks[f].instrs) == 2 and f not in layout.loops
                    and not layout.seq[f]):
                x, keyword = f, "elif"  # the else-arm is a lone ``if``
                continue
            if keyword == "if" and self.lines[-1][4 * indent + 4:].startswith(
                    ("return", "break", "continue")):
                self._branch(x, f, follow, indent)  # no ``else:`` needed
                return
            E(indent, "else:")
            self._branch(x, f, follow, indent + 1)
            if self.lines[-1] == "    " * indent + "else:":
                self.lines.pop()  # the false arm falls through
            return

    def _branch(self, src: int | None, target: int, follow: int | None,
                indent: int) -> None:
        """Emit the jump ``src -> target`` (``src`` is None for an exit
        carried out of an inner loop by ``_exit``); a jump to ``follow``
        emits nothing."""
        frames, E = self._frames, self._emit
        if src is not None and self._tick_pin is not None and any(
                frame.header == target for frame in frames):
            E(indent, "_smp.ticks += 1")  # a taken back edge
            E(indent, "if _smp.ticks >= _smp.threshold:")
            E(indent + 1, f"vm.adaptive.on_hot({self._tick_pin})")
        if target == follow:
            return
        if frames and target == frames[-1].header:
            E(indent, "continue")
        elif frames and target == frames[-1].brk:
            E(indent, "break")
        elif any(target in (frame.header, frame.brk) for frame in frames):
            if src is not None:  # out of two or more loops
                E(indent, f"_exit = {target}")
                self.exit_jumps += 1
            frames[-1].exits[target] = None
            E(indent, "break")
        else:
            # Not placed here: a join that is not the next code, split.
            self.splits += target not in self._layout.inline
            self._region(target, follow, indent)

    # -- function emission --------------------------------------------------------

    def generate(self) -> tuple[str, Callable[[Any, list[Any]], Any]]:
        """Return ``(source, executor)``."""
        fn = self.fn
        while (layout := _Layout(fn)).irreducible:
            if fn is self.fn:
                fn = clone_ir(fn)  # node splitting edits a copy
            self.splits += 1
            _split(fn, *layout.irreducible)
        self._layout = layout
        E = self._emit
        E(0, f"def {self.func_name}(vm, args):")
        E(1, "try:")
        E(2, "_ctx = vm.intrinsic_ctx")
        E(2, "_sf = vm.jtoc.fields")
        for i in range(fn.num_args):
            E(2, f"v_l{i} = args[{i}]")
        # Deopt guards capture *may-live* locals unconditionally, so a
        # local the interpreter would hold as unwritten (= None) must
        # exist in this frame too.
        if any(
            instr.op == "deoptcheck"
            for block in fn.block_order()
            for instr in block.instrs
        ):
            for i in range(fn.num_args, fn.max_locals):
                E(2, f"v_l{i} = None")
        if self.tick_rm is not None and layout.loops:
            rm = self.tick_rm
            self._tick_pin = self._pin(
                "rm", rm, ["method", rm.rclass.name, rm.info.key]
            )
            E(2, f"_smp = {self._tick_pin}.samples")
        self._region(fn.entry, None, 2)
        E(1, "except AttributeError as exc:")
        E(2, "raise _NPE(str(exc)) from exc")
        source = "\n".join(self.lines) + "\n"
        namespace: dict[str, Any] = dict(self.globals)
        code = compile(
            source, f"<jx-opt{self.opt_level}:{fn.name}>", "exec"
        )
        self.code = code
        exec(code, namespace)
        return source, namespace[self.func_name]
