"""State-field value profiling (paper §3.1, second half).

The paper augments Jikes to "generate the possible values for each field
and the distribution of the values of a field over time" by inserting
sampling code at state-field writes.  JxVM does the same through the
state-hook mechanism: candidate-field PUTFIELD/PUTSTATIC instructions
and mutable-class constructor exits get recording hooks, and each event
snapshots the object's **joint** state (instance values + current static
values), so hot *combinations* fall out directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.bytecode.classfile import ProgramUnit
from repro.bytecode.opcodes import Op
from repro.mutation.plan import StateFieldSpec
from repro.vm.adaptive import AdaptiveConfig
from repro.vm.runtime import VM


@dataclass
class ClassValueProfile:
    """Joint state histogram for one candidate class."""

    class_name: str
    instance_fields: list[StateFieldSpec]
    static_fields: list[StateFieldSpec]
    #: (instance_values, static_values) -> sample count
    histogram: Counter = field(default_factory=Counter)
    samples: int = 0

    def record(self, instance_values: tuple, static_values: tuple) -> None:
        self.histogram[(instance_values, static_values)] += 1
        self.samples += 1

    def shares(self) -> list[tuple[tuple, tuple, float]]:
        """(instance_values, static_values, share), descending."""
        if not self.samples:
            return []
        out = [
            (inst, stat, count / self.samples)
            for (inst, stat), count in self.histogram.items()
        ]
        out.sort(key=lambda t: (-t[2], repr(t[:2])))
        return out


class ValueProfiler:
    """Instruments one linked VM and collects joint-state histograms."""

    def __init__(
        self,
        unit: ProgramUnit,
        candidates: dict[str, tuple[list[StateFieldSpec], list[StateFieldSpec]]],
        seed: int = 42,
    ) -> None:
        """``candidates``: class -> (instance specs, static specs)."""
        self.unit = unit
        self.vm = VM(
            unit, adaptive_config=AdaptiveConfig(enabled=False), seed=seed
        )
        self.profiles: dict[str, ClassValueProfile] = {}
        self._instance_slots: dict[str, list[int]] = {}
        self._static_slots: dict[str, list[int]] = {}
        for cls_name, (inst, stat) in candidates.items():
            self.profiles[cls_name] = ClassValueProfile(
                class_name=cls_name,
                instance_fields=list(inst),
                static_fields=list(stat),
            )
            self._instance_slots[cls_name] = [
                self.unit.lookup_field(s.declaring_class, s.field_name).slot
                for s in inst
            ]
            self._static_slots[cls_name] = [
                self.unit.lookup_field(s.declaring_class, s.field_name).slot
                for s in stat
            ]
        self._install_hooks()

    # ------------------------------------------------------------------

    def _sample_object(self, vm, obj) -> None:
        cls_name = obj.tib.type_info.name
        profile = self.profiles.get(cls_name)
        if profile is None:
            return
        fields = obj.fields
        inst = tuple(fields[slot] for slot in self._instance_slots[cls_name])
        stat = tuple(
            vm.jtoc.fields[slot] for slot in self._static_slots[cls_name]
        )
        profile.record(inst, stat)

    def _sample_static_only(self, vm, cls_name: str) -> None:
        profile = self.profiles[cls_name]
        stat = tuple(
            vm.jtoc.fields[slot] for slot in self._static_slots[cls_name]
        )
        profile.record((), stat)

    def _install_hooks(self) -> None:
        instance_keys: set[str] = set()
        static_keys: dict[str, list[str]] = {}
        for cls_name, profile in self.profiles.items():
            for spec in profile.instance_fields:
                instance_keys.add(spec.key)
            for spec in profile.static_fields:
                static_keys.setdefault(spec.key, []).append(cls_name)

        def instance_hook(vm, obj):
            if obj is not None:
                self._sample_object(vm, obj)

        for method in self.unit.all_methods():
            for instr in method.code:
                if instr.op is Op.PUTFIELD:
                    if method.is_constructor:
                        # Mid-construction states are partial; the
                        # constructor-exit hook samples the final state.
                        continue
                    cls_name, field_name = instr.arg
                    finfo = self.unit.lookup_field(cls_name, field_name)
                    key = f"{finfo.declaring_class}.{finfo.name}"
                    if key in instance_keys:
                        instr.state_hook = instance_hook
                elif instr.op is Op.PUTSTATIC:
                    cls_name, field_name = instr.arg
                    finfo = self.unit.lookup_field(cls_name, field_name)
                    key = f"{finfo.declaring_class}.{finfo.name}"
                    interested = static_keys.get(key)
                    if interested:
                        def static_hook(vm, _obj, _classes=tuple(interested)):
                            for name in _classes:
                                if self._instance_slots[name]:
                                    continue  # sampled via objects instead
                                self._sample_static_only(vm, name)

                        instr.state_hook = static_hook

        # Constructor-exit sampling for candidate classes.
        for cls_name in self.profiles:
            rc = self.vm.classes.get(cls_name)
            if rc is None:
                continue
            for key, rm in rc.own_methods.items():
                if rm.info.is_constructor:
                    rm.ctor_exit_hook = instance_hook

    # ------------------------------------------------------------------

    def run(self) -> dict[str, ClassValueProfile]:
        self.vm.run()
        return self.profiles

    def report(self) -> str:
        lines = []
        for cls_name in sorted(self.profiles):
            profile = self.profiles[cls_name]
            lines.append(
                f"{cls_name}: {profile.samples} samples, "
                f"{len(profile.histogram)} distinct states"
            )
            for inst, stat, share in profile.shares()[:8]:
                lines.append(f"  {inst!r} / {stat!r}: {share:.1%}")
        return "\n".join(lines)
