"""Bytecode quickening and TIB-keyed inline caches.

Pristine bytecode re-resolves ``receiver.tib.entries[offset]`` (and a
full IMT probe for interface calls) on every single call.  This module
rewrites each method's resolved virtual and interface calls into
*quickened* forms that carry a per-site inline-cache cell, and fuses the
hottest adjacent opcode pairs into superinstructions.  The rewritten
body lives in ``rm.quick_code`` — a shallow copy of ``rm.info.code`` —
so the pristine bytecode keeps serving the verifier, the IR lowering
and the cache digests untouched.  A method is quickened lazily, on its
first interpreted call (as Jikes RVM compiles baseline code on first
invocation), so setup pays nothing for methods that never run.

Why TIB identity is the cache key
---------------------------------

Inline caches are keyed on the receiver's **TIB object identity**, not
its class.  The paper's central mechanism swaps an object's TIB pointer
between the class TIB and per-hot-state special TIBs, so a mutation is
*automatically* an IC miss: the swapped object arrives with a different
key, the miss re-reads ``tib.entries[offset]``, and the site now calls
the special TIB's entry — deoptimization falls out for free, with no
invalidation protocol and no guards on the hit path.

The one hazard is in-place patching: the mutation manager and the code
installer overwrite TIB *entries* (and JTOC cells) while the TIB object
identity stays the same — a static-state re-evaluation, a recompile, or
a special-version install would leave a stale cached target behind.
Every such patch point calls :meth:`Quickener.flush`, which resets all
cache keys; instance TIB swaps need no flush because they change the
key itself.

Cache-cell state machine (per call site)::

    empty -> monomorphic -> 2-entry polymorphic -> megamorphic

A megamorphic site (third distinct TIB observed) is **de-quickened**:
the original resolved instruction is written back into ``quick_code``
and the site permanently uses today's table-walk path.

Superinstruction fusion is *slot-preserving*: the fused instruction at
slot ``i`` covers the pair ``(i, i+1)`` and skips one extra slot, while
slot ``i+1`` keeps its original (or standalone-quickened) instruction —
so a branch that lands on ``i+1`` still executes correctly and no
branch-target analysis is needed.  Every slot independently holds a
correct continuation of the program.
"""

from __future__ import annotations

from typing import Any

import threading

from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import (
    ADD_PUTFIELD, ADD_RETURN, ADD_STORE, FIELD_INC, GETFIELD_RETURN, INC,
    INVOKEINTERFACE, INVOKEINTERFACE_QUICK, INVOKEVIRTUAL, INVOKEVIRTUAL_QUICK,
    ITER_LT_JF, LOAD, LOAD_CONST, LOAD_GETFIELD, LOAD_LOAD, LOAD_RETURN, Op,
)
from repro.vm.compiled import BaselineCompiled

#: Fusable (first op, second op) -> fused opcode.  The top half are the
#: pairs picked from the measured dynamic adjacent-pair histogram (see
#: Op docstring); the bottom half are the accumulate tails that feed the
#: loop-idiom fusions below.
FUSION_PAIRS = {
    (Op.LOAD, Op.GETFIELD): Op.LOAD_GETFIELD,
    (Op.LOAD, Op.LOAD): Op.LOAD_LOAD,
    (Op.LOAD, Op.CONST): Op.LOAD_CONST,
    (Op.CMP_LT, Op.JUMP_IF_FALSE): Op.CMP_LT_JF,
    (Op.CMP_EQ, Op.JUMP_IF_FALSE): Op.CMP_EQ_JF,
    (Op.ADD, Op.STORE): Op.ADD_STORE,
    (Op.ADD, Op.PUTFIELD): Op.ADD_PUTFIELD,
    (Op.ADD, Op.RETURN): Op.ADD_RETURN,
    (Op.LOAD, Op.RETURN): Op.LOAD_RETURN,
    (Op.LOAD, Op.ADD): Op.LOAD_ADD,
    (Op.LOAD, Op.SUB): Op.LOAD_SUB,
    (Op.LOAD, Op.MUL): Op.LOAD_MUL,
}

#: Four-instruction loop idioms, tried before the pairs.  The Jx front
#: end emits ``LOAD i / CONST c / ADD / STORE i`` for every ``i += c``
#: and ``LOAD i / CONST c / CMP_LT / JUMP_IF_FALSE`` for every counted
#: loop head, so one fused instruction replaces four dispatches in the
#: hottest part of every loop.
_IDIOM_INC = (Op.LOAD, Op.CONST, Op.ADD, Op.STORE)
_IDIOM_ITER = (Op.LOAD, Op.CONST, Op.CMP_LT, Op.JUMP_IF_FALSE)
#: ``obj.f += c`` — six instructions down to one.
_IDIOM_FIELD_INC = (Op.LOAD, Op.LOAD, Op.GETFIELD, Op.CONST,
                    Op.ADD, Op.PUTFIELD)
#: Accessor body ``return this.f`` — the classic getter.
_IDIOM_GETTER = (Op.LOAD, Op.GETFIELD, Op.RETURN)

_LOAD_ARITH = frozenset({Op.LOAD_ADD, Op.LOAD_SUB, Op.LOAD_MUL})


def _fast_rm(vm: Any, cm: Any) -> Any:
    """The IC's inline fast-path target for one resolved method, or None.

    When the target is baseline code with no constructor-exit hook and
    the VM has no telemetry object, the IC records the target
    RuntimeMethod itself (``r0``/``r1``) and the interpreter's hit arm
    folds the ``BaselineCompiled.invoke`` wrapper's work (entry-tick
    sampling) inline, then jumps straight into ``interpret_quick`` —
    an IC hit then skips the generic invoke dispatch entirely.  A target
    not yet quickened is quickened here, as its first call would; one
    whose body TV refused runs its pristine bytecode in the same loop.
    Every in-place change that could invalidate this specialization (a
    recompile install replacing the table entry, a mid-run manager
    attach installing hooks) flushes the IC, so the target is
    re-examined on the next miss; otherwise ``None`` keeps the hit on
    the cached generic ``invoke``.
    """
    rm = cm.rm
    if (
        vm.telemetry is None
        and type(cm) is BaselineCompiled
        and rm.ctor_exit_hook is None
    ):
        if not rm.quick_tried:
            vm.quickener.quicken(rm)
        return rm
    return None


#: Serializes IC publication across concurrently-missing sessions
#: (repro.server).  Hits stay lock-free: inside the lock, values are
#: written *before* the key, and under the GIL attribute stores are
#: sequenced, so a reader that matches a key can never see a value
#: belonging to a different key.  Misses are rare after warmup, so one
#: process-wide lock costs nothing measurable.
_PUBLISH_LOCK = threading.Lock()


def _publish_ic(vm: Any, ic: Any, tib: Any, cm: Any) -> None:
    """Record ``tib -> cm`` in a (possibly shared) cell: mono, then
    2-entry poly, then megamorphic de-quicken on the third distinct
    key.  A concurrent flush can interleave harmlessly — it only
    clears keys, forcing a later re-miss."""
    fast = _fast_rm(vm, cm)
    with _PUBLISH_LOCK:
        if ic.k0 is None or ic.k0 is tib:
            ic.i0 = cm.invoke
            ic.r0 = fast
            ic.k0 = tib
        elif ic.k1 is None or ic.k1 is tib:
            ic.i1 = cm.invoke
            ic.r1 = fast
            ic.k1 = tib
        else:
            _go_megamorphic(vm, ic)


class VirtualIC:
    """Inline cache for one INVOKEVIRTUAL site.

    ``k0``/``k1`` are TIB objects (identity-compared); ``i0``/``i1``
    the matching cached ``invoke`` callables and ``r0``/``r1`` the
    inline fast-path targets (see :func:`_fast_rm`), so a hit pays two
    identity checks instead of a list index plus a bound-method
    allocation plus the generic invoke wrapper.
    """

    __slots__ = ("offset", "argc", "returns", "site_name", "code",
                 "index", "original", "k0", "i0", "r0", "k1", "i1", "r1")

    def __init__(self, offset: int, argc: int, returns: bool,
                 site_name: str, code: list, index: int,
                 original: Instr) -> None:
        self.offset = offset
        self.argc = argc
        self.returns = returns
        self.site_name = site_name
        self.code = code
        self.index = index
        self.original = original
        self.k0: Any = None
        self.i0: Any = None
        self.r0: Any = None
        self.k1: Any = None
        self.i1: Any = None
        self.r1: Any = None

    def flush(self) -> None:
        # Keys only: a concurrent session that already matched a key
        # may still read the value slots, so they must stay callable.
        # Every in-place patch replaces a target with a semantically
        # equivalent one, so the one stale call a racing hit can make
        # is still correct code; the cleared key forces the *next*
        # execution to miss and re-resolve.  (Values are overwritten on
        # that miss.)
        self.k0 = None
        self.k1 = None

    def lookup(self, receiver: Any) -> Any:
        tib = receiver.tib
        return tib.entries[self.offset]

    def miss(self, vm: Any, receiver: Any, callargs: list) -> Any:
        """Slow path: re-resolve, record the new key, invoke."""
        tib = receiver.tib
        cm = tib.entries[self.offset]
        _note_miss(vm, self, tib)
        _publish_ic(vm, self, tib, cm)
        return cm.invoke(vm, callargs)


class InterfaceIC:
    """Inline cache for one INVOKEINTERFACE site.

    A hit skips the whole IMT probe (slot load, conflict-stub search)
    in addition to the bound-method allocation.
    """

    __slots__ = ("slot", "key", "argc", "returns", "site_name", "code",
                 "index", "original", "k0", "i0", "r0", "k1", "i1", "r1")

    def __init__(self, slot: int, key: str, argc: int, returns: bool,
                 site_name: str, code: list, index: int,
                 original: Instr) -> None:
        self.slot = slot
        self.key = key
        self.argc = argc
        self.returns = returns
        self.site_name = site_name
        self.code = code
        self.index = index
        self.original = original
        self.k0: Any = None
        self.i0: Any = None
        self.r0: Any = None
        self.k1: Any = None
        self.i1: Any = None
        self.r1: Any = None

    def flush(self) -> None:
        # Keys only: a concurrent session that already matched a key
        # may still read the value slots, so they must stay callable.
        # Every in-place patch replaces a target with a semantically
        # equivalent one, so the one stale call a racing hit can make
        # is still correct code; the cleared key forces the *next*
        # execution to miss and re-resolve.  (Values are overwritten on
        # that miss.)
        self.k0 = None
        self.k1 = None

    def miss(self, vm: Any, receiver: Any, callargs: list) -> Any:
        tib = receiver.tib
        cm = tib.imt.dispatch(receiver, self.slot, self.key)
        _note_miss(vm, self, tib)
        _publish_ic(vm, self, tib, cm)
        return cm.invoke(vm, callargs)


def _note_miss(vm: Any, ic: Any, tib: Any) -> None:
    tel = vm.telemetry
    if tel is None or not tel.enabled:
        return
    tel.count("ic.miss")
    tel.emit(
        "ic_miss",
        site=ic.site_name,
        cls=tib.type_info.name,
        special=tib.is_special,
        state=str(tib.state) if tib.is_special else None,
    )
    hits = tel.metrics.counter("ic.hit").value
    misses = tel.metrics.counter("ic.miss").value
    tel.metrics.gauge("ic.hit_rate").set(hits / (hits + misses))


def _go_megamorphic(vm: Any, ic: Any) -> None:
    """Third distinct TIB at one site: write the original resolved
    instruction back so the site uses the plain table-walk path."""
    ic.code[ic.index] = ic.original
    ic.flush()
    tel = vm.telemetry
    if tel is not None and tel.enabled:
        tel.count("ic.megamorphic")


class Quickener:
    """Owns every inline-cache cell of one VM.

    Created by the VM when ``VMConfig.quicken`` is on; holds the flush
    registry that the code installer and the mutation manager notify
    when they patch dispatch-table entries in place.
    """

    def __init__(self, vm: Any) -> None:
        self.vm = vm
        self.caches: list[Any] = []
        self.flushes = 0
        self.methods_quickened = 0
        self.sites = 0
        self.fused = 0
        #: Bodies translation validation checked before publication.
        self.validated = 0

    # ------------------------------------------------------------------

    def quicken_all(self) -> None:
        """Quicken every method no call has reached yet: ``jx lint``
        checks the whole program, and a frozen code space leaves its
        sessions nothing to build."""
        for rm in self.vm.all_runtime_methods():
            if not rm.quick_tried:
                self.quicken(rm)

    def quicken(self, rm: Any) -> None:
        """Build, validate and publish one method's quickened body.

        Runs once per method, on its first interpreted call (or when an
        inline cache first resolves to it, so it can become the cache's
        inline target).  Under ``VMConfig.tv`` the body is published
        only once translation validation proves it; a refused body is
        recorded, never retried, and the method interprets its pristine
        bytecode.
        """
        rm.quick_tried = True
        sites, fused = self.sites, self.fused
        quick = self._rewrite(rm)
        vm = self.vm
        tel = vm.telemetry
        if tel is not None and tel.enabled:
            sites, fused = self.sites - sites, self.fused - fused
            tel.emit("quicken", method=rm.qualified_name, sites=sites,
                     fused=fused)
            tel.count("quicken.methods")
            tel.count("quicken.sites", sites)
            tel.count("quicken.fused", fused)
        if vm.config.tv:
            from repro.analysis.tv import prove_quick_body

            self.validated += 1
            if not prove_quick_body(vm, rm, quick):
                return
        rm.quick_code = quick

    def _rewrite(self, rm: Any) -> list[Instr]:
        """Rewrite one method's body into its quickened form.

        Each slot is decided independently: either the fused form of the
        pair starting there, the standalone quickened form, or the
        original shared instruction (PUTFIELD/PUTSTATIC always keep the
        original object so state hooks installed later — e.g. by the
        online controller mid-run — stay live in quick code too).
        """
        code = rm.info.code
        quick: list[Instr] = list(code)
        n = len(code)
        qname = rm.qualified_name
        for i in range(n):
            instr = code[i]
            op = instr.op
            if (
                i + 5 < n
                and op is LOAD
                and (code[i].op, code[i + 1].op, code[i + 2].op,
                     code[i + 3].op, code[i + 4].op,
                     code[i + 5].op) == _IDIOM_FIELD_INC
                and instr.arg == code[i + 1].arg
                and code[i + 2].arg == code[i + 5].arg
            ):
                # Keep the shared PUTFIELD Instr in the arg so its
                # resolved slot and state hook are read live.
                quick[i] = Instr(
                    FIELD_INC,
                    (instr.arg, code[i + 5], code[i + 3].arg),
                    instr.line,
                )
                self.fused += 1
                continue
            if i + 3 < n:
                ops4 = (op, code[i + 1].op, code[i + 2].op, code[i + 3].op)
                if ops4 == _IDIOM_INC and instr.arg == code[i + 3].arg:
                    quick[i] = Instr(
                        INC, (instr.arg, code[i + 1].arg), instr.line
                    )
                    self.fused += 1
                    continue
                if ops4 == _IDIOM_ITER:
                    quick[i] = Instr(
                        ITER_LT_JF,
                        (instr.arg, code[i + 1].arg, code[i + 3].arg),
                        instr.line,
                    )
                    self.fused += 1
                    continue
            if (
                i + 2 < n
                and op is LOAD
                and (op, code[i + 1].op, code[i + 2].op) == _IDIOM_GETTER
            ):
                second = code[i + 1]
                new_i = Instr(
                    GETFIELD_RETURN,
                    (instr.arg, second.resolved, second.arg[1]),
                    second.line,
                )
                quick[i] = new_i
                self.fused += 1
                continue
            if i + 1 < n:
                fused_op = FUSION_PAIRS.get((op, code[i + 1].op))
                if (
                    fused_op in _LOAD_ARITH
                    and i + 2 < n
                    and (code[i + 1].op, code[i + 2].op) in FUSION_PAIRS
                ):
                    # The arithmetic op fuses better with its successor
                    # (e.g. LOAD/ADD/PUTFIELD: keep ADD for ADD_PUTFIELD).
                    fused_op = None
                if fused_op is not None:
                    quick[i] = self._fuse(fused_op, instr, code[i + 1])
                    self.fused += 1
                    continue
            if op is INVOKEVIRTUAL:
                offset, returns = instr.resolved
                new = Instr(INVOKEVIRTUAL_QUICK, instr.arg, instr.line)
                new.resolved = VirtualIC(
                    offset, instr.arg[2], returns,
                    f"{qname}@{i}", quick, i, instr,
                )
                self.caches.append(new.resolved)
                quick[i] = new
                self.sites += 1
            elif op is INVOKEINTERFACE:
                slot, key, returns = instr.resolved
                new = Instr(INVOKEINTERFACE_QUICK, instr.arg, instr.line)
                new.resolved = InterfaceIC(
                    slot, key, instr.arg[2], returns,
                    f"{qname}@{i}", quick, i, instr,
                )
                self.caches.append(new.resolved)
                quick[i] = new
                self.sites += 1
        self.methods_quickened += 1
        return quick

    @staticmethod
    def _fuse(fused_op: Op, first: Instr, second: Instr) -> Instr:
        """Build the superinstruction covering ``(first, second)``."""
        if fused_op is LOAD_GETFIELD:
            # Carry the GETFIELD's line so a null-receiver error points
            # at the same source line the unfused pair would.
            new = Instr(
                fused_op,
                (first.arg, second.resolved, second.arg[1]),
                second.line,
            )
        elif fused_op is LOAD_LOAD or fused_op is LOAD_CONST:
            new = Instr(fused_op, (first.arg, second.arg), first.line)
        elif fused_op is ADD_STORE:
            new = Instr(fused_op, second.arg, first.line)
        elif fused_op is ADD_PUTFIELD:
            # Carry the shared PUTFIELD Instr itself: the interpreter
            # reads its ``resolved`` slot and — live, on every execution
            # — its ``state_hook``, so hooks installed mid-run by the
            # online controller fire through the fused form too.
            new = Instr(fused_op, second, second.line)
        elif fused_op is ADD_RETURN:
            new = Instr(fused_op, None, first.line)
        elif fused_op is LOAD_RETURN or fused_op in _LOAD_ARITH:
            new = Instr(fused_op, first.arg, first.line)
        else:  # CMP_LT_JF / CMP_EQ_JF: carry the branch target
            new = Instr(fused_op, second.arg, first.line)
        return new

    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Reset every cache key: the next execution of each site misses
        and re-resolves.  Called whenever dispatch-table entries are
        patched in place (recompile installs, special-version installs,
        static-state re-evaluations) — TIB *swaps* never need this."""
        for ic in self.caches:
            ic.flush()
        self.flushes += 1
        tel = self.vm.telemetry
        if tel is not None and tel.enabled:
            tel.count("ic.flush")