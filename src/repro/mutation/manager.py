"""The online mutation manager — paper §3.2.2's distributed dynamic
class mutation algorithm (Fig. 4 + Fig. 5).

At VM startup (:meth:`MutationManager.attach`):

* each mutable class that depends on at least one **instance** state
  field gets one special TIB per hot state, replicated from the class
  TIB (entries initially alias the class TIB's — lazy compilation is
  preserved);
* every PUTFIELD/PUTSTATIC writing a state field gets a state hook, and
  every constructor of a mutable class gets a constructor-exit hook
  (Fig. 4's patch points);
* mutable-class IMT entries are converted to offset entries so one IMT
  serves the class TIB and all special TIBs (paper §3.2.3);
* mutable methods are flagged for the inliner's trade-off heuristic and
  the plan's lifetime constants are published to the VM.

At runtime:

* **instance state-field writes / constructor exits** re-evaluate the
  object's instance state values and swap its TIB pointer between the
  matching special TIB and the class TIB (Fig. 4, first two clauses);
* **static state-field writes** re-evaluate each dependent class's
  static match and repoint compiled-code pointers: special-TIB entries
  for instance+static classes, class-TIB entries for static-only
  classes, JTOC cells for mutable static methods, and the
  RuntimeMethod's active pointer for private methods of static-only
  classes (Fig. 4, third clause; §3.2.3);
* **opt2 recompilation of a mutable method** (Fig. 5) generates every
  specialized version alongside the general code — with no value
  guards — then re-applies the current static match.

Every hooked state-field write re-evaluates, as in Fig. 4, so a write
of two state fields back-to-back may swap twice.  **Unified
accounting**: every swap path — the class-specialized re-evaluation
closures and the opt2 inline fast path — bumps
``vm.mutation_stats.tib_swaps`` through
:meth:`MutationManager.record_swap` (the inline path bumps the same
field directly), and the ``mutation.tib_swap`` telemetry counter mirrors
it in instrumented runs, so both reporters agree.

**Per-session accounting** (``repro.server``): every hook and
re-evaluation closure charges the ``vm`` *it was invoked with*, never a
captured VM.  One manager may serve many sessions sharing a code space
(:class:`repro.server.CodeSpace`); each session owns its own
``mutation_stats``, so two sessions' swap counts can never bleed into
each other.  For a solo :class:`~repro.vm.runtime.VM` the invoking vm
is the owning vm and nothing changes.
"""

from __future__ import annotations

import time
import warnings
from typing import Any

from repro.bytecode.opcodes import Op
from repro.mutation.plan import HotState, MutableClassPlan, MutationPlan
from repro.opt.specialize import SpecBindings
from repro.telemetry.core import maybe as _tel_maybe
from repro.vm.imt import ConflictStub, DirectEntry, OffsetEntry
from repro.vm.tib import TIB

#: Paper §6: "Mutation occurs at opt2."
MUTATION_OPT_LEVEL = 2


class MutableClassRuntime:
    """Link-time resolution of one :class:`MutableClassPlan`."""

    def __init__(self, vm: Any, plan: MutableClassPlan) -> None:
        self.plan = plan
        self.rc = vm.classes[plan.class_name]
        unit = vm.unit
        self.instance_slots = [
            unit.lookup_field(s.declaring_class, s.field_name).slot
            for s in plan.instance_fields
        ]
        self.static_slots = [
            unit.lookup_field(s.declaring_class, s.field_name).slot
            for s in plan.static_fields
        ]
        self.hot_states = list(plan.hot_states)
        #: instance-values tuple -> special TIB (shared by states that
        #: differ only in static values).
        self.tib_by_instance: dict[tuple, TIB] = {}
        #: Current static-side values matched against hot states.
        self.current_static_values: tuple = ()

    @property
    def class_name(self) -> str:
        return self.plan.class_name

    def read_static_values(self, vm: Any) -> tuple:
        return tuple(vm.jtoc.fields[slot] for slot in self.static_slots)

    def read_instance_values(self, obj: Any) -> tuple:
        f = obj.fields
        return tuple(f[s] for s in self.instance_slots)

    def states_matching_static(self, static_values: tuple) -> list[HotState]:
        return [
            hs for hs in self.hot_states if hs.static_values == static_values
        ]

    def mutable_rms(self) -> list[Any]:
        out = []
        for key in self.plan.mutable_methods:
            rm = self.rc.own_methods.get(key)
            if rm is not None:
                out.append(rm)
        return out


class MutationManager:
    """Owns all mutation state for one VM."""

    def __init__(self, vm: Any, plan: MutationPlan) -> None:
        self.vm = vm
        self.plan = plan
        self.mcrs: dict[str, MutableClassRuntime] = {}
        self._attached = False
        #: Hook registries, keyed symbolically so cached compiled code
        #: can re-link against this VM's hooks (repro.cache).
        self._instance_hook: Any = None
        self.static_hooks: dict[str, Any] = {}
        self.ctor_hooks: dict[str, Any] = {}
        #: class name -> findings that caused the specialization-safety
        #: audit to downgrade its plan (see :meth:`_audit_plans`).
        self.downgraded_classes: dict[str, list] = {}

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    def attach(self) -> None:
        if self._attached:
            return
        self._attached = True
        vm = self.vm
        for name, class_plan in self.plan.classes.items():
            if name not in vm.classes:
                continue
            mcr = MutableClassRuntime(vm, class_plan)
            self.mcrs[name] = mcr
            self._create_special_tibs(mcr)
            self._mark_mutable_methods(mcr)
            self._convert_imt(mcr)
        self._install_field_hooks()
        self._audit_plans()
        self._install_ctor_hooks()
        self._publish_lifetime_constants()
        vm.adaptive.recompile_listeners.append(self.on_recompiled)
        # Mid-run attach (the online controller) converts IMT entries
        # and installs hooks under live inline caches; flush them so no
        # site keeps a pre-attach target.  A no-op at VM construction
        # (the quickener does not exist yet) and when quickening is off.
        vm.flush_inline_caches()
        tel = _tel_maybe(vm.telemetry)
        if tel is not None:
            tel.metrics.gauge("mutation.mutable_classes").set(
                len(self.mcrs)
            )
            tel.metrics.gauge("mutation.special_tibs").set(
                vm.mutation_stats.special_tibs_created
            )

    def _create_special_tibs(self, mcr: MutableClassRuntime) -> None:
        """One special TIB per hot state; states sharing instance values
        share a TIB (the static side selects the code pointers).  Classes
        depending only on static fields need no special TIB (§3.2.2)."""
        if not mcr.instance_slots:
            return
        for hs in mcr.hot_states:
            iv = hs.instance_values
            if iv in mcr.tib_by_instance:
                continue
            tib = TIB.special_from(mcr.rc.class_tib, state=iv)
            self.vm.tib_space.record_special_tib(tib)
            self.vm.mutation_stats.special_tibs_created += 1
            mcr.tib_by_instance[iv] = tib
            mcr.rc.special_tibs[iv] = tib

    def _mark_mutable_methods(self, mcr: MutableClassRuntime) -> None:
        for rm in mcr.mutable_rms():
            rm.is_mutable = True
            rm.num_state_fields = mcr.plan.num_state_fields  # type: ignore[attr-defined]

    def _convert_imt(self, mcr: MutableClassRuntime) -> None:
        """Mutable classes dispatch interface calls through TIB offsets so
        special TIBs are honored and one IMT serves them all (§3.2.3)."""
        rc = mcr.rc
        if rc.imt is None:
            return
        for key, slot in rc.imt_slot_of.items():
            offset = rc.vtable_layout[key]
            entry = rc.imt.slots[slot]
            if isinstance(entry, DirectEntry):
                rc.imt.slots[slot] = OffsetEntry(offset)
            elif isinstance(entry, ConflictStub):
                entry.targets[key] = OffsetEntry(offset)

    def _state_field_keys(self) -> tuple[dict[str, list], dict[str, list]]:
        """(instance field key -> interested mcrs,
        static field key -> interested mcrs)."""
        instance: dict[str, list] = {}
        static: dict[str, list] = {}
        for mcr in self.mcrs.values():
            for spec in mcr.plan.instance_fields:
                instance.setdefault(spec.key, []).append(mcr)
            for spec in mcr.plan.static_fields:
                static.setdefault(spec.key, []).append(mcr)
        return instance, static

    def instance_state_hook(self):
        """The shared PUTFIELD state hook (one per manager; it already
        dispatches on the written object's exact class)."""
        if self._instance_hook is None:
            hook = self._make_instance_hook()
            hook.cache_ref = ("instance_hook",)  # type: ignore[attr-defined]
            self._instance_hook = hook
        return self._instance_hook

    def _install_field_hooks(self) -> None:
        instance_keys, static_keys = self._state_field_keys()
        unit = self.vm.unit
        for method in unit.all_methods():
            if method.is_abstract:
                continue
            for instr in method.code:
                if instr.op is Op.PUTFIELD:
                    cls_name, field_name = instr.arg
                    finfo = unit.lookup_field(cls_name, field_name)
                    if finfo is None:
                        self._warn_unresolved(method, cls_name, field_name)
                        continue
                    key = f"{finfo.declaring_class}.{finfo.name}"
                    if key in instance_keys:
                        instr.state_hook = self.instance_state_hook()
                elif instr.op is Op.PUTSTATIC:
                    cls_name, field_name = instr.arg
                    finfo = unit.lookup_field(cls_name, field_name)
                    if finfo is None:
                        self._warn_unresolved(method, cls_name, field_name)
                        continue
                    key = f"{finfo.declaring_class}.{finfo.name}"
                    mcrs = static_keys.get(key)
                    if mcrs:
                        hook = self.static_hooks.get(key)
                        if hook is None:
                            hook = self._make_static_hook(mcrs)
                            hook.cache_ref = (  # type: ignore[attr-defined]
                                "static_hook", key
                            )
                            self.static_hooks[key] = hook
                        instr.state_hook = hook

    @staticmethod
    def _warn_unresolved(method: Any, cls_name: str, field_name: str) -> None:
        """An unresolvable field write cannot be a state-field write
        (the plan only names resolvable fields), so skipping the hook is
        safe — but it points at a stale plan or program, so say so."""
        warnings.warn(
            f"mutation: cannot resolve field {cls_name}.{field_name} "
            f"written by {method.key}; no state hook installed",
            RuntimeWarning,
            stacklevel=3,
        )

    def _audit_plans(self) -> None:
        """Specialization-safety audit (paper-soundness backstop): after
        hook installation, re-check that every state-field write of every
        attached plan carries its hook
        (:func:`repro.analysis.specsafety.audit_attached_plans`).

        The installer establishes this by construction, so a finding
        means an installer regression or a hand-patched program; either
        way running specialized code behind an incomplete hook set is
        unsound, so the violating class is **downgraded** instead: its
        special TIBs are detached and its objects keep the class TIB
        (correct, merely unspecialized)."""
        from repro.analysis.specsafety import audit_attached_plans

        for name, findings in sorted(audit_attached_plans(self).items()):
            self._downgrade_class(name, findings)

    def _downgrade_class(self, name: str, findings: list) -> None:
        mcr = self.mcrs.pop(name, None)
        if mcr is None:
            return
        self.downgraded_classes[name] = list(findings)
        rc = mcr.rc
        rc.special_tibs.clear()
        mcr.tib_by_instance.clear()
        for rm in mcr.mutable_rms():
            rm.is_mutable = False
        # Installed hooks stay on the bytecode (harmless: the shared
        # hooks consult the registries below, which no longer know the
        # class), but the swap machinery is detached.
        hook = self._instance_hook
        if hook is not None:
            hook.reeval_by_class.pop(name, None)
        for static_hook in self.static_hooks.values():
            static_hook.mcrs[:] = [
                m for m in static_hook.mcrs if m is not mcr
            ]
        self.vm.mutation_stats.plans_downgraded += 1
        tel = _tel_maybe(self.vm.telemetry)
        if tel is not None:
            tel.count("analysis.plan_downgraded")
            tel.emit(
                "plan_downgraded",
                cls=name,
                findings=[f.format() for f in findings],
            )

    def _install_ctor_hooks(self) -> None:
        """Fig. 4, first clause: at the end of the constructors of a
        mutable class whose state depends on any instance field.  The
        exact-class check matters: a subclass construction runs this
        constructor via super(), but only exact instances mutate."""
        tel = self.vm.telemetry
        for mcr in self.mcrs.values():
            if not mcr.instance_slots:
                continue
            reeval = self._make_reeval(mcr)
            rc = mcr.rc

            if tel is None:

                def ctor_hook(vm: Any, obj: Any, _rc=rc,
                              _reeval=reeval) -> None:
                    if obj.tib.type_info is _rc:
                        _reeval(vm, obj)

            else:

                def ctor_hook(vm: Any, obj: Any, _rc=rc,
                              _reeval=reeval, _tel=tel) -> None:
                    if obj.tib.type_info is _rc:
                        if _tel.enabled:
                            _tel.count("mutation.hooks_fired")
                            _tel.emit(
                                "hook_fired", kind="ctor_exit",
                                cls=_rc.name,
                            )
                        _reeval(vm, obj)

            spec = getattr(reeval, "inline_spec", None)
            if spec is not None:
                ctor_hook.inline_spec = spec  # type: ignore[attr-defined]
            ctor_hook.cache_ref = (  # type: ignore[attr-defined]
                "ctor_hook", rc.name
            )
            self.ctor_hooks[rc.name] = ctor_hook
            for rm in mcr.rc.own_methods.values():
                if rm.info.is_constructor:
                    rm.ctor_exit_hook = ctor_hook

    def _publish_lifetime_constants(self) -> None:
        unit = self.vm.unit
        published = {}
        for key, info in self.plan.lifetime_constants.items():
            target = info.target_class
            info.field_values = {}
            for fname, value in info.field_values_by_name.items():
                finfo = unit.lookup_field(target, fname)
                if finfo is not None and not finfo.is_static:
                    info.field_values[finfo.slot] = value
            if info.field_values:
                published[key] = info
        self.vm.lifetime_constants = published

    # ------------------------------------------------------------------
    # Fig. 4: actions at state-field assignments
    # ------------------------------------------------------------------

    def _make_instance_hook(self):
        """The generic state-field-write hook (Fig. 4, second clause).

        Dispatches on the object's exact class; single-state-field
        classes (the common case) take a tuple-free fast path — this
        hook runs on every mutable-object allocation, so its cost is the
        mutation technique's main runtime tax.
        """
        reeval_by_class: dict[str, Any] = {}
        for name, mcr in self.mcrs.items():
            if mcr.instance_slots:
                reeval_by_class[name] = self._make_reeval(mcr)
        tel = self.vm.telemetry

        if tel is None:

            def hook(vm: Any, obj: Any) -> None:
                if obj is None:
                    return
                reeval = reeval_by_class.get(obj.tib.type_info.name)
                if reeval is not None:
                    reeval(vm, obj)

            # Exposed (same dict the closure reads) so a plan downgrade
            # can detach one class without rebuilding the hook.
            hook.reeval_by_class = reeval_by_class  # type: ignore[attr-defined]
            return hook

        def hook_tel(vm: Any, obj: Any) -> None:
            if obj is None:
                return
            cls_name = obj.tib.type_info.name
            if tel.enabled:
                tel.count("mutation.hooks_fired")
                tel.emit("hook_fired", kind="putfield", cls=cls_name)
            reeval = reeval_by_class.get(cls_name)
            if reeval is not None:
                reeval(vm, obj)

        hook_tel.reeval_by_class = reeval_by_class  # type: ignore[attr-defined]
        return hook_tel

    def _make_reeval(self, mcr: MutableClassRuntime):
        """Class-specialized TIB re-evaluation closure ``f(vm, obj)``.

        Single-state-field classes (the common case) dispatch on the raw
        field value — no tuple allocation on the per-object-birth path.
        The closure charges the ``vm`` it is invoked with, so sessions
        sharing this manager's code space each keep their own counts.
        """
        record = self.record_swap
        class_tib = mcr.rc.class_tib
        tel = self.vm.telemetry
        cls_name = mcr.class_name
        if len(mcr.instance_slots) == 1:
            slot = mcr.instance_slots[0]
            table1 = {
                key[0]: tib for key, tib in mcr.tib_by_instance.items()
            }

            if tel is None:

                def reeval1(vm: Any, obj: Any) -> None:
                    tib = table1.get(obj.fields[slot], class_tib)
                    if obj.tib is not tib:
                        obj.tib = tib
                        vm.mutation_stats.tib_swaps += 1

                reeval1.inline_spec = (  # type: ignore[attr-defined]
                    "single", mcr.rc, slot, table1, class_tib
                )
                return reeval1

            # Instrumented variant: timed, event-emitting, and — on
            # purpose — without inline_spec, so opt2 code keeps calling
            # the closure and swaps stay observable.
            def reeval1_tel(vm: Any, obj: Any) -> None:
                start = time.perf_counter()
                tib = table1.get(obj.fields[slot], class_tib)
                if obj.tib is not tib:
                    obj.tib = tib
                    record(tib is not class_tib, cls_name, start, vm)

            return reeval1_tel
        slots = tuple(mcr.instance_slots)
        table = mcr.tib_by_instance

        if tel is None:

            def reeval(vm: Any, obj: Any) -> None:
                fields = obj.fields
                tib = table.get(
                    tuple(fields[s] for s in slots), class_tib
                )
                if obj.tib is not tib:
                    obj.tib = tib
                    vm.mutation_stats.tib_swaps += 1

            return reeval

        def reeval_tel(vm: Any, obj: Any) -> None:
            start = time.perf_counter()
            fields = obj.fields
            tib = table.get(
                tuple(fields[s] for s in slots), class_tib
            )
            if obj.tib is not tib:
                obj.tib = tib
                record(tib is not class_tib, cls_name, start, vm)

        return reeval_tel

    def record_swap(self, to_special: bool, cls_name: str,
                    start: float | None = None,
                    vm: Any = None) -> None:
        """The single accounting point for a TIB-pointer swap.

        Bumps ``vm.mutation_stats.tib_swaps`` of the *invoking* vm —
        the session that performed the swap, defaulting to the owning
        vm for solo runs — and, in instrumented runs, the
        ``mutation.tib_swap`` counter for *every* swap plus
        ``mutation.deopt_to_class_tib`` for the swap-back subset, with
        the matching directional event.  The uninstrumented closures and
        the opt2 inline fast path bump the same VMStats field directly —
        they exist only when telemetry is off, so the counter and the
        telemetry mirror cannot diverge.
        """
        if vm is None:
            vm = self.vm
        vm.mutation_stats.tib_swaps += 1
        tel = _tel_maybe(vm.telemetry)
        if tel is not None:
            name = "tib_swap" if to_special else "deopt_to_class_tib"
            tel.emit(name, cls=cls_name)
            tel.count("mutation.tib_swap")
            elapsed = time.perf_counter() - tel.bus.epoch
            if elapsed > 0:
                tel.metrics.gauge("mutation.swap_rate").set(
                    vm.mutation_stats.tib_swaps / elapsed
                )
            if not to_special:
                tel.count("mutation.deopt_to_class_tib")
            if start is not None:
                tel.observe(
                    "mutation.swap_seconds", time.perf_counter() - start
                )

    def _make_static_hook(self, mcrs: list[MutableClassRuntime]):
        tel = self.vm.telemetry

        def hook(vm: Any, _obj: Any) -> None:
            if tel is not None and tel.enabled:
                tel.count("mutation.hooks_fired")
                tel.emit(
                    "hook_fired", kind="putstatic",
                    classes=[m.class_name for m in mcrs],
                )
            for mcr in mcrs:
                self.apply_static_state(mcr, vm)

        # Exposed (same list the closure iterates) so a plan downgrade
        # can detach one class without rebuilding the hook.
        hook.mcrs = mcrs  # type: ignore[attr-defined]
        return hook

    def apply_static_state(self, mcr: MutableClassRuntime,
                           vm: Any = None) -> None:
        """Fig. 4, third clause (also reused by Fig. 5): repoint compiled
        code according to the current static state-field values.

        Static-state mutation patches *shared* dispatch structures
        (special-TIB entries, class TIBs, JTOC cells), which is exactly
        why classes depending on static state fields are excluded from
        multi-session code spaces (:mod:`repro.server.shareable`); the
        ``vm`` parameter only selects whose JTOC supplies the values.

        Every branch falls back to ``rm.general`` when no special
        matches.  ``rm.general`` is the invariant fallback: the
        installer keeps it pointing at the one valid general compiled
        method, whereas ``rm.compiled`` is *repointed at a special* by
        the static-only private-method branch below — falling back to
        it (as the first two branches once did) risks resurrecting a
        stale special after the class leaves all hot states.  The
        guard at the top makes the two equivalent today (specials imply
        an opt2 recompile, which set both to the same object), so this
        is unification against the latent trap, not a behavior change.
        """
        if vm is None:
            vm = self.vm
        static_values = mcr.read_static_values(vm)
        mcr.current_static_values = static_values
        tel = _tel_maybe(vm.telemetry)
        if tel is not None:
            tel.count("mutation.state_reevals")
            tel.emit(
                "state_reeval",
                cls=mcr.class_name,
                static_values=list(static_values),
            )
        for rm in mcr.mutable_rms():
            if not rm.specials:
                continue
            info = rm.info
            if info.is_static:
                # Static methods: JTOC patching; they can only depend on
                # static fields, so the state key has empty instance part.
                special = rm.specials.get(((), static_values))
                rm.jtoc_cell.compiled = (
                    special if special is not None else rm.general
                )
            elif mcr.instance_slots:
                # Instance+static classes: patch each special TIB.
                # Private instance methods have no TIB slot and cannot be
                # mutated here (paper §3.2.3); the plan builder filters
                # them, and this guard protects hand-written plans.
                if rm.vtable_offset < 0:
                    continue
                for inst_values, tib in mcr.tib_by_instance.items():
                    special = rm.specials.get((inst_values, static_values))
                    tib.entries[rm.vtable_offset] = (
                        special if special is not None else rm.general
                    )
            else:
                # Static-only classes: patch the class TIB itself; all
                # instances share the mutation state (§3.2.2).  Private
                # instance methods swap the invokespecial pointer
                # (§3.2.3: the class TIB itself can be specialized).
                special = rm.specials.get(((), static_values))
                active = special if special is not None else rm.general
                if rm.vtable_offset >= 0:
                    mcr.rc.class_tib.entries[rm.vtable_offset] = active
                else:
                    rm.compiled = active
        # Entries were repointed under unchanged TIB identities — the
        # one case the paper's swap-as-invalidation trick cannot cover —
        # so inline caches must forget their targets explicitly.
        vm.flush_inline_caches()

    # ------------------------------------------------------------------
    # Fig. 5: actions at opt2 recompilation of mutable methods
    # ------------------------------------------------------------------

    def on_recompiled(self, rm: Any, opt_level: int) -> None:
        if opt_level < MUTATION_OPT_LEVEL or not rm.is_mutable:
            return
        mcr = self.mcrs.get(rm.info.declaring_class)
        if mcr is None:
            return
        self.generate_specials(mcr, rm)
        self.apply_static_state(mcr)

    def generate_specials(self, mcr: MutableClassRuntime, rm: Any) -> None:
        """Compile one specialized version per hot state (Fig. 5: "all
        special compiled code ... of this method are generated").

        Every hot state gets its own compile, and each one bumps
        ``vm.mutation_stats.specials_compiled`` and the compile-stats
        special bytes.
        """
        vm = self.vm
        info = rm.info
        if (
            not info.is_static
            and rm.vtable_offset < 0
            and mcr.instance_slots
        ):
            return  # unreachable through any special TIB (paper §3.2.3)
        for hs in mcr.hot_states:
            bindings = SpecBindings(label=hs.describe(mcr.plan))
            if not rm.info.is_static:
                bindings.instance = dict(
                    zip(mcr.instance_slots, hs.instance_values)
                )
                # The special TIB this version speculates on; the OSR
                # pass guards mid-frame state writes against it so a
                # running frame that swaps its own receiver deopts
                # instead of finishing on a stale state.
                bindings.tib = mcr.tib_by_instance.get(hs.instance_values)
            bindings.static = dict(
                zip(mcr.static_slots, hs.static_values)
            )
            if rm.info.is_static and not bindings.static:
                continue  # nothing to specialize a static method on
            key = (
                ((), hs.static_values)
                if rm.info.is_static
                else hs.key
            )
            if key in rm.specials:
                continue
            tel = _tel_maybe(vm.telemetry)
            if tel is not None:
                tel.emit(
                    "compile_begin",
                    method=rm.info.qualified_name,
                    opt_level=MUTATION_OPT_LEVEL,
                    special=True,
                    state=bindings.label,
                )
            start = time.perf_counter()
            special = vm.opt_compiler.compile(
                rm, MUTATION_OPT_LEVEL, bindings=bindings
            )
            seconds = time.perf_counter() - start
            rm.specials[key] = special
            vm.mutation_stats.specials_compiled += 1
            vm.compile_stats.record_special(
                seconds, special.code_size_bytes
            )
            if tel is not None:
                tel.emit(
                    "compile_end",
                    dur=seconds,
                    method=rm.info.qualified_name,
                    opt_level=MUTATION_OPT_LEVEL,
                    special=True,
                    state=bindings.label,
                    code_size_bytes=special.code_size_bytes,
                )
                tel.emit(
                    "special_install",
                    method=rm.info.qualified_name,
                    state=bindings.label,
                    code_size_bytes=special.code_size_bytes,
                )
                tel.count("mutation.specials_compiled")
                tel.count(
                    "compile.special_code_bytes",
                    special.code_size_bytes,
                )
                tel.observe("compile.seconds.special", seconds)
                tel.metrics.gauge("vm.compile_seconds").set(
                    vm.compile_stats.total_seconds
                )

    # ------------------------------------------------------------------

    def describe(self) -> str:
        lines = []
        for name in sorted(self.mcrs):
            mcr = self.mcrs[name]
            lines.append(
                f"{name}: {len(mcr.tib_by_instance)} special TIBs, "
                f"static match {mcr.current_static_values!r}"
            )
            for rm in mcr.mutable_rms():
                lines.append(
                    f"  {rm.info.qualified_name}: "
                    f"{len(rm.specials)} special versions"
                )
        stats = self.vm.mutation_stats
        lines.append(
            f"tib swaps: {stats.tib_swaps}, "
            f"special versions: {stats.specials_compiled}"
        )
        return "\n".join(lines)
