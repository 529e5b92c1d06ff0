"""Method inlining, including the paper's *specialization inlining*.

Candidate selection:

* ``callsp`` (invokespecial: constructors, private methods, ``super``)
  and ``calls`` (static) have exact targets;
* ``callv`` is devirtualized by class-hierarchy analysis — JxVM loads
  all classes up front, so a vtable slot with a single concrete
  occupant among the receiver class's subtree needs no guard.

Specialization interplay (paper §5):

* If the receiver is loaded from a private reference field with
  **object lifetime constants** (paper §4), the callee is inlined with
  those fields bound to constants — specialization and inlining
  compose, no guard needed.
* Otherwise, for a *mutable* method the two transformations compete:
  inlining destroys the TIB-dispatch point that specialization relies
  on.  The trade-off heuristic: let ``N`` be the number of constant
  arguments at the call site and ``M`` the number of specializable
  state fields in the callee; inline iff ``N > M + k`` (``k`` tunable;
  very negative k => always inline, very positive => always specialize).

:meth:`Inliner.run` repeatedly scans for the first inlinable call in
reverse postorder and splices it, until a scan finds none or the growth
budget runs out.  A scan also walks the callee blocks spliced in before
it, so inlining is transitive, bounded by the growth budget, the callee
size limits and the guard against inlining the root method into itself.
A scan reads the function's cached block order, which only a splice
invalidates; the register producers and ``this`` aliases that only
lifetime-constant receivers consult are built on demand, at most once
per scan.

Memos: one :class:`Inliner` serves one compile, and it lowers each
callee and answers each CHA query (declared class, vtable offset) once.
Neither input changes during a compile: lowering reads only the
callee's linked bytecode, and JxVM loads every class up front.  The
splice reads the lowered callee without changing it, so only
lifetime-constant specialization, which rewrites loads in place, works
on a clone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

from repro.opt.ir import Const, Extra, IRFunction, IRInstr, Reg, clone_ir
from repro.opt.lowering import lower_method
from repro.opt.specialize import SpecBindings, specialize_ir, this_aliases


#: A CHA query not answered yet this compile (None is an answer).
_UNASKED = object()


@dataclass(frozen=True)
class InlineConfig:
    """Inliner tunables."""

    enabled: bool = True
    #: Maximum callee bytecode length considered for inlining.
    max_callee_size: int = 40
    #: IR-instruction growth budget per compiled method; with the
    #: callee size limits and the root-recursion guard, the only bound
    #: on transitive inlining.
    max_growth: int = 300
    #: The specialization-inlining trade-off constant (paper §5).
    k: int = 0
    #: Mutable callees at or below this bytecode size are inlined
    #: regardless of the N > M + k trade-off: for tiny methods the
    #: dispatch overhead exceeds any specialization payoff (the paper
    #: models the same pressure by choosing a negative ``k``).
    mutable_tiny_size: int = 28


class Inliner:
    """Inlines call sites into one function's IR, for one compile."""

    def __init__(
        self,
        fn: IRFunction,
        vm: Any,
        root_rm: Any,
        config: InlineConfig,
    ) -> None:
        self.fn = fn
        self.vm = vm
        self.root_rm = root_rm
        self.config = config
        self.budget = config.max_growth
        self._rename_counter = 0
        self.inlined_count = 0
        #: Qualified names on the inline stack (recursion guard).
        self._stack = {root_rm.info.qualified_name}
        #: Callee RuntimeMethod -> its lowered IR, never mutated.
        self._lowered: dict[Any, IRFunction] = {}
        #: (declared class, vtable offset) -> CHA's single target or None.
        self._cha: dict[tuple[str, int | None], Any] = {}

    # -- target resolution ---------------------------------------------------

    def _resolve_target(self, instr: IRInstr) -> Any:
        if instr.op == "callsp":
            return instr.extra.rm
        if instr.op == "calls":
            return instr.extra.cell.compiled.rm
        if instr.op == "callv":
            return self._devirtualize(instr)
        return None

    def _devirtualize(self, instr: IRInstr) -> Any:
        """CHA: the single concrete target of a virtual call, or None."""
        query = (instr.extra.name, instr.extra.offset)
        target = self._cha.get(query, _UNASKED)
        if target is _UNASKED:
            target = self._cha[query] = self._single_target(*query)
        return target

    def _single_target(self, decl: str, offset: int | None) -> Any:
        targets = set()
        for rc in self.vm.classes.values():
            if rc.is_interface or not rc.is_subtype_of(decl):
                continue
            if offset is None or offset >= len(rc.vtable_rms):
                continue
            targets.add(rc.vtable_rms[offset])
            if len(targets) > 1:
                return None
        return next(iter(targets)) if len(targets) == 1 else None

    # -- eligibility ------------------------------------------------------------

    def _receiver_lifetime_bindings(
        self, instr: IRInstr,
        facts: Callable[[], tuple[dict[str, IRInstr], set[str]]],
    ) -> SpecBindings | None:
        """Object-lifetime-constant bindings for this call's receiver.

        Applies when the receiver is ``this.<ref>`` where ``<ref>`` is a
        private reference field with proven lifetime constants (paper
        §4/§5, e.g. ``deliveryScreen.<anything>()`` gets rows/cols
        bound).  ``facts()`` gives the function's register producers and
        ``this`` aliases.
        """
        lifetime = getattr(self.vm, "lifetime_constants", None)
        if not lifetime:
            return None
        recv = instr.args[0]
        if not isinstance(recv, Reg):
            return None
        producers, aliases = facts()
        producer = producers.get(recv.name)
        if producer is None or producer.op != "getfield":
            return None
        obj = producer.args[0]
        if not (isinstance(obj, Reg) and obj.name in aliases):
            return None
        info = lifetime.get(producer.extra.key)
        if info is None:
            return None
        return SpecBindings(
            instance=dict(info.field_values), label=f"olc:{producer.extra.key}"
        )

    def _should_inline(
        self, instr: IRInstr, target_rm: Any, olc: SpecBindings | None
    ) -> bool:
        info = target_rm.info
        if info.is_abstract or not info.code:
            return False
        if info.qualified_name in self._stack:
            return False
        if len(info.code) > self.config.max_callee_size:
            return False
        if len(info.code) > self.budget:
            return False
        if target_rm.is_mutable and olc is None:
            if len(info.code) <= self.config.mutable_tiny_size:
                return True
            # The inline-vs-specialize trade-off (paper §5): N > M + k.
            n_const_args = sum(
                1 for a in instr.args[1:] if isinstance(a, Const)
            )
            m_spec_fields = getattr(target_rm, "num_state_fields", 0)
            if not n_const_args > m_spec_fields + self.config.k:
                return False
        return True

    # -- splicing -----------------------------------------------------------------

    def _clone_callee(
        self, callee_fn: IRFunction
    ) -> tuple[dict[int, int], dict[int, list[IRInstr]], str]:
        """Clone callee blocks with renamed registers and fresh block ids."""
        prefix = f"in{self._rename_counter}_"
        self._rename_counter += 1
        block_map: dict[int, int] = {}
        for bid in callee_fn.blocks:
            block_map[bid] = self.fn.new_block().id

        def rename_reg(reg: Reg) -> Reg:
            return Reg(prefix + reg.name)

        def rename_operand(operand):
            return rename_operand_inner(operand)

        def rename_operand_inner(operand):
            if isinstance(operand, Reg):
                return rename_reg(operand)
            return operand

        cloned: dict[int, list[IRInstr]] = {}
        for bid, block in callee_fn.blocks.items():
            out = []
            for instr in block.instrs:
                ex = instr.extra
                new_extra = Extra(
                    slot=ex.slot,
                    key=ex.key,
                    hook=ex.hook,
                    rc=ex.rc,
                    rm=ex.rm,
                    cell=ex.cell,
                    offset=ex.offset,
                    intrinsic=ex.intrinsic,
                    elem=ex.elem,
                    fill=ex.fill,
                    bounds=ex.bounds,
                    returns=ex.returns,
                    target=(
                        block_map[ex.target] if ex.target is not None else None
                    ),
                    if_true=(
                        block_map[ex.if_true]
                        if ex.if_true is not None
                        else None
                    ),
                    if_false=(
                        block_map[ex.if_false]
                        if ex.if_false is not None
                        else None
                    ),
                    name=ex.name,
                )
                out.append(
                    IRInstr(
                        instr.op,
                        rename_reg(instr.dest)
                        if instr.dest is not None
                        else None,
                        [rename_operand(a) for a in instr.args],
                        new_extra,
                        instr.line,
                    )
                )
            cloned[block_map[bid]] = out
        return block_map, cloned, prefix

    def _inline_site(
        self,
        block_id: int,
        call_index: int,
        target_rm: Any,
        olc: SpecBindings | None,
    ) -> None:
        fn = self.fn
        block = fn.blocks[block_id]
        call = block.instrs[call_index]

        callee_fn = self._lowered.get(target_rm)
        if callee_fn is None:
            callee_fn = self._lowered[target_rm] = lower_method(
                target_rm.info
            )
        if olc is not None and olc:
            callee_fn = clone_ir(callee_fn)
            specialize_ir(callee_fn, olc)
        self.budget -= callee_fn.instr_count()

        block_map, cloned, prefix = self._clone_callee(callee_fn)

        # Continuation block receives the instructions after the call.
        cont = fn.new_block()
        fn.set_instrs(cont, block.instrs[call_index + 1:])

        # Caller block: bind parameters, jump to the cloned entry.
        head = block.instrs[:call_index]
        for i, arg in enumerate(call.args):
            head.append(
                IRInstr("mov", Reg(f"{prefix}l{i}"), [arg], line=call.line)
            )
        head.append(
            IRInstr(
                "jump", None, [],
                Extra(target=block_map[callee_fn.entry]), call.line,
            )
        )
        fn.set_instrs(block, head)

        # Rewrite callee rets into result-mov + jump to continuation.
        # An inlined hooked constructor carries its constructor-exit
        # hook along (paper Fig. 4: the check lives at the end of the
        # constructor, so it inlines with the body).
        hook = target_rm.ctor_exit_hook
        receiver = Reg(f"{prefix}l0")
        for new_bid, instrs in cloned.items():
            out = []
            for instr in instrs:
                if instr.op == "ret":
                    if hook is not None:
                        out.append(
                            IRInstr(
                                "hookcall", None, [receiver],
                                Extra(hook=hook), instr.line,
                            )
                        )
                    if call.dest is not None:
                        value = instr.args[0] if instr.args else Const(None)
                        out.append(
                            IRInstr("mov", call.dest, [value], line=instr.line)
                        )
                    out.append(
                        IRInstr(
                            "jump", None, [], Extra(target=cont.id),
                            instr.line,
                        )
                    )
                else:
                    out.append(instr)
            fn.set_instrs(fn.blocks[new_bid], out)
        self.inlined_count += 1

    # -- driver --------------------------------------------------------------------

    def run(self) -> int:
        if not self.config.enabled:
            return 0
        site = self._find_site()
        while site is not None:
            self._inline_site(*site)
            if self.budget <= 0:
                break
            site = self._find_site()
        return self.inlined_count

    def _find_site(self):
        """The first inlinable call in reverse postorder, read from the
        cached order (a walk only after a splice); the producers and
        aliases a lifetime-constant receiver needs are built only if
        some site asks, once per scan."""
        blocks = self.fn.block_order()

        @functools.cache
        def facts() -> tuple[dict[str, IRInstr], set[str]]:
            producers = {
                instr.dest.name: instr
                for block in blocks
                for instr in block.instrs
                if instr.dest is not None
            }
            return producers, this_aliases(self.fn)

        for block in blocks:
            for i, instr in enumerate(block.instrs):
                if instr.op not in ("callsp", "calls", "callv"):
                    continue
                target_rm = self._resolve_target(instr)
                if target_rm is None:
                    continue
                olc = None
                if instr.op == "callv":
                    olc = self._receiver_lifetime_bindings(instr, facts)
                if self._should_inline(instr, target_rm, olc):
                    return (block.id, i, target_rm, olc)
        return None


def inline_calls(
    fn: IRFunction, vm: Any, rm: Any, config: InlineConfig | None = None
) -> int:
    """Run the inliner; returns the number of call sites inlined."""
    return Inliner(fn, vm, rm, config or InlineConfig()).run()
