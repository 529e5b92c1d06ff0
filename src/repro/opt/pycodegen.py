"""The opt1/opt2 backend: IR -> Python source -> executable function.

This is JxVM's "native code": each IR instruction becomes one or two
Python statements, compiled once with :func:`compile`/``exec`` and then
invoked directly.  Both optimizing tiers use it; they differ only in the
pass schedule that built the IR (:mod:`repro.opt.pipeline`).
Specialized methods whose dispatch chains were folded away become tiny
straight-line Python functions — which is what makes the paper's
speedups observable on this substrate.

Code shape: single-block functions are emitted as straight-line bodies;
multi-block functions use a block-dispatch loop (``_bb`` state variable).
Runtime objects (runtime classes, JTOC cells, intrinsics, mutation
hooks) are pinned into the function's globals, so the generated source
is fully self-contained and cacheable.

Code below the top tier keeps feeding the adaptive system: every taken
back-edge (a jump to a block id not above the current one) adds one tick
to the method's samples and asks for promotion once they cross the
threshold, so hot methods climb from opt1 to opt2.

Null-pointer checks are delegated to Python: dereferencing ``None``
raises ``AttributeError``, which the function-level handler converts to
the VM's NullPointerError.  Bounds checks are explicit (Python's
negative indexing would silently wrap).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cache.artifact import UnlinkableArtifact, encode_value, hook_ref
from repro.opt.cfg import natural_loops
from repro.opt.ir import Const, IRFunction, IRInstr, Operand, Reg
from repro.vm.interpreter import _is_ref
from repro.vm.values import (
    ArrayBoundsError,
    ClassCastError,
    NullPointerError,
    VMArray,
    jx_rem,
    jx_str,
    jx_truncate_div,
)

_BIN_FMT = {
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
    "eq": "_eq({0}, {1})",
    "ne": "not _eq({0}, {1})",
    "concat": "_jstr({0}) + _jstr({1})",
}
_UN_FMT = {
    "neg": "-{0}",
    "not": "not {0}",
    "i2d": "float({0})",
    "d2i": "int({0})",
}


def _py_fdiv(a: float, b: float) -> float:
    if b == 0:
        if a == 0:
            return float("nan")
        return float("inf") if a > 0 else float("-inf")
    return a / b


def _py_eq(a: Any, b: Any) -> bool:
    return (a is b) if _is_ref(a) or _is_ref(b) else (a == b)


class _LoopNode:
    """One level of the loop-nesting tree used for code emission.

    ``dispatch_ids`` — the block ids this level can actually route to
    (its own blocks plus everything owned by descendants).  Using the
    owned closure (not the raw natural-loop body) guarantees a level is
    only entered when it can make progress, even for oddly-overlapping
    loop bodies.
    """

    __slots__ = ("body_ids", "own_blocks", "children", "dispatch_ids",
                 "min_id", "is_root")

    def __init__(self, body_ids: set[int], is_root: bool = False) -> None:
        self.body_ids = body_ids
        self.own_blocks: list[Any] = []
        self.children: list["_LoopNode"] = []
        self.dispatch_ids: set[int] = set()
        self.min_id = min(body_ids) if body_ids else 0
        self.is_root = is_root

    def finalize(self) -> None:
        for child in self.children:
            child.finalize()
        self.dispatch_ids = {b.id for b in self.own_blocks}
        for child in self.children:
            self.dispatch_ids |= child.dispatch_ids
        if self.dispatch_ids:
            self.min_id = min(self.dispatch_ids)


def _build_loop_tree(fn: IRFunction) -> _LoopNode:
    """Nest natural loops by body inclusion; every block is owned by the
    innermost loop containing it (or the root)."""
    blocks = {b.id: b for b in fn.block_order()}
    root = _LoopNode(set(blocks), is_root=True)
    loops = sorted(
        natural_loops(*fn.graph()), key=lambda hl: (len(hl[1]), hl[0])
    )
    nodes = [_LoopNode(set(body)) for _, body in loops]
    for i, node in enumerate(nodes):
        parent = root
        for candidate in nodes[i + 1:]:
            if node.body_ids < candidate.body_ids:
                parent = candidate
                break
        parent.children.append(node)
    # Assign blocks to the innermost containing node (smallest first).
    for bid, block in blocks.items():
        owner = root
        for node in nodes:
            if bid in node.body_ids:
                owner = node
                break
        owner.own_blocks.append(block)
    root.finalize()
    return root


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
            "_eq": _py_eq,
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

    @staticmethod
    def _primitive_const(operands: list[Operand]) -> bool:
        return any(
            isinstance(a, Const)
            and a.value is not None
            and isinstance(a.value, (bool, int, float, str))
            for a in operands
        )

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

    def _emit_instr(self, instr: IRInstr, indent: int) -> None:
        op = instr.op
        args = [self._operand(a) for a in instr.args]
        dest = self._reg(instr.dest) if instr.dest is not None else None
        E = self._emit
        if op == "mov":
            E(indent, f"{dest} = {args[0]}")
        elif op in ("eq", "ne") and self._primitive_const(instr.args):
            # When either side is a non-null primitive constant, Python's
            # ``==`` agrees with the VM's reference-identity rule (a
            # reference never equals a primitive), so skip the helper.
            py_op = "==" if op == "eq" else "!="
            E(indent, f"{dest} = {args[0]} {py_op} {args[1]}")
        elif op in _BIN_FMT:
            E(indent, f"{dest} = {_BIN_FMT[op].format(*args)}")
        elif op in _UN_FMT:
            E(indent, f"{dest} = {_UN_FMT[op].format(*args)}")
        elif op == "getfield":
            E(indent, f"{dest} = {args[0]}.fields[{instr.extra.slot}]")
        elif op == "putfield":
            E(indent, f"{args[0]}.fields[{instr.extra.slot}] = {args[1]}")
            if instr.extra.hook is not None:
                hook = self._pin("hook", instr.extra.hook,
                                 hook_ref(instr.extra.hook))
                E(indent, f"{hook}(vm, {args[0]})")
        elif op == "getstatic":
            E(indent, f"{dest} = _sf[{instr.extra.slot}]")
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
        elif op == "arraylen":
            E(indent, f"{dest} = len({args[0]}.data)")
        elif op == "instanceof":
            name = self._pin("tn", instr.extra.rc.name,
                             ["value", instr.extra.rc.name])
            E(
                indent,
                f"{dest} = {args[0]} is not None and {name} in "
                f"{args[0]}.tib.type_info.all_supertypes",
            )
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

    def _ticks(self, src: int, target: int) -> bool:
        """Whether the edge ``src -> target`` is a ticking back-edge."""
        return self._tick_pin is not None and target <= src

    def _emit_goto(
        self, src: int, target: int, scope_ids: set[int], indent: int
    ) -> None:
        """Set _bb and either stay in the current loop level (continue)
        or bubble out one level (break) based on static membership."""
        E = self._emit
        if self._ticks(src, target):
            E(indent, "_smp.ticks += 1")
            E(indent, "if _smp.ticks >= _smp.threshold:")
            E(indent + 1, f"vm.adaptive.on_hot({self._tick_pin})")
        E(indent, f"_bb = {target}")
        E(indent, "continue" if target in scope_ids else "break")

    def _emit_block_body(
        self, block, scope_ids: set[int], indent: int
    ) -> None:
        E = self._emit
        body = block.instrs
        for instr in body[:-1]:
            self._emit_instr(instr, indent)
        term = body[-1]
        if term.op == "jump":
            self._emit_goto(block.id, term.extra.target, scope_ids, indent)
        elif term.op == "br":
            cond = self._operand(term.args[0])
            t, f = term.extra.if_true, term.extra.if_false
            t_in = t in scope_ids
            f_in = f in scope_ids
            if t_in == f_in and not (
                self._ticks(block.id, t) or self._ticks(block.id, f)
            ):
                E(indent, f"_bb = {t} if {cond} else {f}")
                E(indent, "continue" if t_in else "break")
            else:
                E(indent, f"if {cond}:")
                self._emit_goto(block.id, t, scope_ids, indent + 1)
                E(indent, "else:")
                self._emit_goto(block.id, f, scope_ids, indent + 1)
        else:
            self._emit_instr(term, indent)

    def _emit_level(self, node: "_LoopNode", indent: int) -> None:
        """Emit one loop level: ``while True`` + dispatch over the
        level's own blocks (binary search on block id) after O(1)
        membership checks for child loops.  Jumping to a block outside
        the level breaks out; the parent level re-dispatches."""
        E = self._emit
        E(indent, "while True:")
        inner = indent + 1
        first = True
        for child in sorted(node.children, key=lambda c: c.min_id):
            ids = self._pin("lset", frozenset(child.dispatch_ids),
                            ["frozenset", sorted(child.dispatch_ids)])
            E(inner, f"{'if' if first else 'elif'} _bb in {ids}:")
            self._emit_level(child, inner + 1)
            E(inner + 1, "continue")
            first = False
        own = sorted(node.own_blocks, key=lambda b: b.id)
        body_indent = inner
        if not first:  # children were emitted; own blocks go in `else:`
            E(inner, "else:")
            body_indent = inner + 1
        if own:
            self._emit_block_tree(own, node, body_indent)
        else:
            self._emit_miss(node, body_indent)

    def _emit_miss(self, node: "_LoopNode", indent: int) -> None:
        E = self._emit
        if node.is_root:
            E(indent, "raise AssertionError('unknown block ' + str(_bb))")
        else:
            E(indent, "break")

    def _emit_block_tree(
        self, own: list, node: "_LoopNode", indent: int
    ) -> None:
        """Binary-search dispatch over this level's own blocks."""
        E = self._emit
        if len(own) == 1:
            if node.is_root and not node.children:
                # Sole candidate: no membership check needed.
                self._emit_block_body(own[0], node.dispatch_ids, indent)
                return
            E(indent, f"if _bb == {own[0].id}:")
            self._emit_block_body(own[0], node.dispatch_ids, indent + 1)
            E(indent, "else:")
            self._emit_miss(node, indent + 1)
            return
        if len(own) == 2:
            E(indent, f"if _bb == {own[0].id}:")
            self._emit_block_body(own[0], node.dispatch_ids, indent + 1)
            E(indent, f"elif _bb == {own[1].id}:")
            self._emit_block_body(own[1], node.dispatch_ids, indent + 1)
            E(indent, "else:")
            self._emit_miss(node, indent + 1)
            return
        mid = len(own) // 2
        E(indent, f"if _bb < {own[mid].id}:")
        self._emit_block_tree(own[:mid], node, indent + 1)
        E(indent, "else:")
        self._emit_block_tree(own[mid:], node, indent + 1)

    # -- function emission --------------------------------------------------------

    def generate(self) -> tuple[str, Callable[[Any, list[Any]], Any]]:
        """Return ``(source, executor)``."""
        fn = self.fn
        blocks = fn.block_order()
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
            for block in blocks
            for instr in block.instrs
        ):
            for i in range(fn.num_args, fn.max_locals):
                E(2, f"v_l{i} = None")
        if self.tick_rm is not None and any(
            target <= block.id
            for block in blocks
            for target in block.successors()
        ):
            rm = self.tick_rm
            self._tick_pin = self._pin(
                "rm", rm, ["method", rm.rclass.name, rm.info.key]
            )
            E(2, f"_smp = {self._tick_pin}.samples")
        if len(blocks) == 1 and blocks[0].terminator.op == "ret":
            for instr in blocks[0].instrs:
                self._emit_instr(instr, 2)
        else:
            E(2, f"_bb = {fn.entry}")
            self._emit_level(_build_loop_tree(fn), 2)
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

