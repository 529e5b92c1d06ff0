"""Online mutation — the paper's stated future work (§9).

    "In future work, we plan to consolidate our tool chain and
    investigate the feasibility of a complete online Java solution.
    We will try to move our offline profiling and static analysis to
    a JVM."

This module implements that single-VM solution: no offline runs, no
plan files.  One :class:`OnlineMutationController` rides along with a
VM and replays the Fig. 3 pipeline *in situ*:

1. **Candidate selection (static, at startup)** — EQ1 runs with a
   static hotness proxy (loop-nesting levels only, since no profile
   exists yet), producing a superset of plausible state fields.  This
   is the "light weight static analysis algorithms" the paper asks for.
2. **Online value profiling** — the candidate fields get recording
   hooks (the same state-hook mechanism the mutation manager uses), so
   the warm-up phase of normal execution doubles as the value-profiling
   run.
3. **Activation** — once enough samples accumulate (or on explicit
   :meth:`OnlineMutationController.activate`), hot states are derived,
   lifetime constants analyzed, and a full
   :class:`~repro.mutation.manager.MutationManager` attaches to the
   *running* VM.  Methods already compiled at opt2 are re-registered so
   their specialized versions generate on their next recompilation; hot
   mutable methods are nudged back onto the promotion ladder so Fig. 5
   fires promptly.

The trade-off mirrors the paper's discussion: activation costs a warm-up
window of hook overhead and some re-specialization compilation, in
exchange for needing no profiling runs at all.
"""

from __future__ import annotations

from typing import Any

from repro.bytecode.opcodes import Op
from repro.mutation.hot_states import derive_hot_states
from repro.mutation.lifetime import analyze_lifetime_constants
from repro.mutation.manager import MUTATION_OPT_LEVEL, MutationManager
from repro.mutation.pipeline import _methods_reading_fields
from repro.mutation.plan import (
    MutableClassPlan,
    MutationConfig,
    MutationPlan,
)
from repro.mutation.state_fields import derive_state_fields
from repro.profiling.value_profiler import ClassValueProfile
from repro.telemetry.core import maybe as _tel_maybe


class OnlineMutationController:
    """Runs the offline pipeline inside a live VM.

    Usage::

        vm = VM(compile_source(source))
        controller = OnlineMutationController(vm)
        vm.run()                      # warm-up samples accumulate
        controller.activate()         # derive plan, attach manager
        vm.call_static(...)           # now runs under mutation
    """

    def __init__(
        self,
        vm: Any,
        config: MutationConfig | None = None,
        min_samples: int = 64,
        auto_activate: bool = True,
    ) -> None:
        self.vm = vm
        self.config = config or MutationConfig()
        self.min_samples = min_samples
        self.auto_activate = auto_activate
        self.manager: MutationManager | None = None
        self.plan: MutationPlan | None = None
        self._profiles: dict[str, ClassValueProfile] = {}
        self._instance_slots: dict[str, list[int]] = {}
        self._static_slots: dict[str, list[int]] = {}
        self._candidates = self._select_candidates()
        self._samples = 0
        self._install_recording_hooks()

    # ------------------------------------------------------------------
    # Stage 1: static candidate selection
    # ------------------------------------------------------------------

    def _static_hotness_proxy(self) -> dict[str, float]:
        """Without a profile, every concrete method weighs equally; the
        EQ1 loop-depth terms then carry the whole signal."""
        return {
            m.qualified_name: 1.0
            for m in self.vm.unit.all_methods()
            if not m.is_abstract and m.code
        }

    def _select_candidates(self) -> dict[str, MutableClassPlan]:
        unit = self.vm.unit
        from repro.lang import stdlib_class_names

        stdlib_names = stdlib_class_names()
        classes = {
            name
            for name, cls in unit.classes.items()
            if not cls.is_interface and name not in stdlib_names
        }
        fields = derive_state_fields(
            unit, classes, self._static_hotness_proxy(), self.config
        )
        out: dict[str, MutableClassPlan] = {}
        for cls_name, specs in fields.items():
            inst = [s for s in specs if not s.is_static]
            stat = [s for s in specs if s.is_static]
            profile = ClassValueProfile(
                class_name=cls_name,
                instance_fields=inst,
                static_fields=stat,
            )
            self._profiles[cls_name] = profile
            self._instance_slots[cls_name] = [
                unit.lookup_field(s.declaring_class, s.field_name).slot
                for s in inst
            ]
            self._static_slots[cls_name] = [
                unit.lookup_field(s.declaring_class, s.field_name).slot
                for s in stat
            ]
            out[cls_name] = MutableClassPlan(
                class_name=cls_name,
                instance_fields=inst,
                static_fields=stat,
            )
        return out

    # ------------------------------------------------------------------
    # Stage 2: online value profiling
    # ------------------------------------------------------------------

    def _sample(self, vm: Any, obj: Any) -> None:
        if self.manager is not None:
            return  # already activated; hooks were retargeted anyway
        profile = self._profiles.get(obj.tib.type_info.name)
        if profile is None:
            return
        tel = _tel_maybe(vm.telemetry)
        if tel is not None:
            tel.count("online.samples")
            tel.emit(
                "hook_fired", kind="online_sample",
                cls=profile.class_name,
            )
        name = profile.class_name
        inst = tuple(
            obj.fields[slot] for slot in self._instance_slots[name]
        )
        stat = tuple(
            vm.jtoc.fields[slot] for slot in self._static_slots[name]
        )
        profile.record(inst, stat)
        self._samples += 1
        if self.auto_activate and self._samples >= self.min_samples:
            self.activate()

    def _install_recording_hooks(self) -> None:
        unit = self.vm.unit
        instance_keys = {
            s.key
            for cp in self._candidates.values()
            for s in cp.instance_fields
        }

        def hook(vm: Any, obj: Any) -> None:
            if obj is not None:
                self._sample(vm, obj)

        for method in unit.all_methods():
            if method.is_abstract or method.is_constructor:
                continue
            for instr in method.code:
                if instr.op is Op.PUTFIELD and instr.state_hook is None:
                    cls_name, field_name = instr.arg
                    finfo = unit.lookup_field(cls_name, field_name)
                    key = f"{finfo.declaring_class}.{finfo.name}"
                    if key in instance_keys:
                        instr.state_hook = hook
        for cls_name in self._candidates:
            rc = self.vm.classes.get(cls_name)
            if rc is None:
                continue
            for rm in rc.own_methods.values():
                if rm.info.is_constructor and rm.ctor_exit_hook is None:
                    rm.ctor_exit_hook = hook

    # ------------------------------------------------------------------
    # Stage 3: activation
    # ------------------------------------------------------------------

    @property
    def activated(self) -> bool:
        return self.manager is not None

    def build_plan(self) -> MutationPlan:
        """Derive the plan from the samples gathered so far."""
        unit = self.vm.unit
        plan = MutationPlan(config=self.config)
        for cls_name, profile in self._profiles.items():
            inst, stat, hot_states = derive_hot_states(profile, self.config)
            if not hot_states:
                continue
            keys = {s.key for s in inst} | {s.key for s in stat}
            mutable_methods = _methods_reading_fields(
                unit, cls_name, keys, has_instance_fields=bool(inst)
            )
            if not mutable_methods:
                continue
            plan.classes[cls_name] = MutableClassPlan(
                class_name=cls_name,
                instance_fields=list(inst),
                static_fields=list(stat),
                hot_states=hot_states,
                mutable_methods=mutable_methods,
            )
        if plan.classes:
            plan.lifetime_constants = analyze_lifetime_constants(
                unit, plan.mutable_class_names
            )
        return plan

    def activate(self) -> MutationPlan:
        """Derive the plan and attach a mutation manager to the live VM."""
        if self.manager is not None:
            return self.plan  # type: ignore[return-value]
        self.plan = self.build_plan()
        vm = self.vm
        self.manager = MutationManager(vm, self.plan)
        self.manager.attach()
        vm.mutation_manager = self.manager
        self._retrofit_existing_objects()
        self._respecialize_hot_methods()
        tel = _tel_maybe(vm.telemetry)
        if tel is not None:
            tel.emit(
                "online_activate",
                samples=self._samples,
                candidate_classes=len(self._candidates),
                mutable_classes=len(self.plan.classes),
            )
            tel.metrics.gauge("online.samples_at_activation").set(
                self._samples
            )
        return self.plan

    def _retrofit_existing_objects(self) -> None:
        """Objects allocated before activation hold class-TIB pointers;
        they migrate lazily at their next state-field write or — for the
        common constructor-once pattern — stay on general code, which is
        always correct.  Nothing to do eagerly (the VM does not track
        object instances, same GC constraint as the paper §3.2.2)."""

    def _respecialize_hot_methods(self) -> None:
        """Methods that reached opt2 before activation never saw Fig. 5;
        re-run their recompilation so the special versions generate and
        install immediately."""
        assert self.manager is not None
        vm = self.vm
        for cp in self.plan.classes.values():  # type: ignore[union-attr]
            rc = vm.classes.get(cp.class_name)
            if rc is None:
                continue
            for key in cp.mutable_methods:
                rm = rc.own_methods.get(key)
                if rm is None:
                    continue
                if rm.compiled.opt_level >= MUTATION_OPT_LEVEL:
                    vm.adaptive.recompile(rm, MUTATION_OPT_LEVEL)

    def describe(self) -> str:
        state = "activated" if self.activated else "profiling"
        lines = [
            f"online mutation controller [{state}]: "
            f"{self._samples} samples over "
            f"{len(self._candidates)} candidate classes"
        ]
        if self.plan is not None:
            lines.append(self.plan.describe())
        return "\n".join(lines)
