"""The offline→online contract: mutation plans.

The offline pipeline (profiling + static analysis, paper §3.1) produces
a :class:`MutationPlan`; the VM's mutation manager consumes it at
startup ("the information acquired in step 1 is fed into a Java Virtual
Machine at the startup of the JVM", paper §3).  Plans reference classes,
fields, and methods **by name** so one plan, built against a profiling
VM, applies to any VM running the same source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class MutationConfig:
    """Tunables for the offline analysis (paper EQ1's ``R``, §5's ``k``,
    plus the profiling thresholds)."""

    #: EQ1's R: weight of the assignment-cost term.
    R: float = 1.0
    #: Discount on assignments occurring in constructors/<clinit>: field
    #: initialization costs one TIB swap at object birth (the ctor-exit
    #: hook), not re-specialization churn, so it barely counts against a
    #: field (refinement of the paper's assumption 3).
    ctor_assign_weight: float = 0.1
    #: Minimum EQ1 score for a field to qualify as a state field.
    min_state_score: float = 0.005
    #: A method is hot if its tick share exceeds this fraction.
    hot_method_share: float = 0.005
    #: A joint state is hot if its sample share exceeds this fraction.
    hot_state_share: float = 0.05
    #: Cap on hot states per class (bounds special-TIB count).
    max_hot_states: int = 8
    #: The inline-vs-specialize trade-off constant (paper §5).
    k: int = 0
    #: Field types eligible as state fields (small discrete domains).
    state_field_types: frozenset[str] = frozenset(
        {"int", "boolean", "string"}
    )


@dataclass
class StateFieldSpec:
    """One field selected by the EQ1 analysis."""

    declaring_class: str
    field_name: str
    is_static: bool
    score: float

    @property
    def key(self) -> str:
        return f"{self.declaring_class}.{self.field_name}"


@dataclass
class HotState:
    """One hot combination of state-field values for a class.

    ``instance_values``/``static_values`` are index-aligned with the
    owning :class:`MutableClassPlan`'s field lists.
    """

    instance_values: tuple[Any, ...]
    static_values: tuple[Any, ...]
    share: float = 0.0

    @property
    def key(self) -> tuple:
        return (self.instance_values, self.static_values)

    def describe(self, plan: "MutableClassPlan") -> str:
        parts = [
            f"{spec.field_name}={value!r}"
            for spec, value in zip(
                plan.instance_fields, self.instance_values
            )
        ]
        parts += [
            f"{spec.field_name}={value!r}"
            for spec, value in zip(plan.static_fields, self.static_values)
        ]
        return ", ".join(parts)


@dataclass
class MutableClassPlan:
    """Mutation plan for one mutable class."""

    class_name: str
    instance_fields: list[StateFieldSpec] = field(default_factory=list)
    static_fields: list[StateFieldSpec] = field(default_factory=list)
    hot_states: list[HotState] = field(default_factory=list)
    #: Keys of methods declared by this class that read state fields.
    mutable_methods: list[str] = field(default_factory=list)

    @property
    def num_state_fields(self) -> int:
        return len(self.instance_fields) + len(self.static_fields)

    @property
    def depends_on_instance(self) -> bool:
        return bool(self.instance_fields)

    @property
    def depends_on_static(self) -> bool:
        return bool(self.static_fields)


@dataclass
class LifetimeConstInfo:
    """Object lifetime constants reachable through one private reference
    field (paper §4): all methods invoked with that field as receiver may
    assume these field values."""

    #: "DeclaringClass.fieldName" of the private reference field.
    ref_field_key: str
    #: Exact class of the referenced object.
    target_class: str
    #: Constant-valued fields of the target: field name -> value.
    field_values_by_name: dict[str, Any] = field(default_factory=dict)
    #: Filled at attach time by the manager: field slot -> value.
    field_values: dict[int, Any] = field(default_factory=dict)


@dataclass
class MutationPlan:
    """Everything the online mutation manager needs."""

    classes: dict[str, MutableClassPlan] = field(default_factory=dict)
    lifetime_constants: dict[str, LifetimeConstInfo] = field(
        default_factory=dict
    )
    config: MutationConfig = field(default_factory=MutationConfig)
    #: Hot-method names (informational; also drives Fig. 14 acceleration).
    hot_methods: list[str] = field(default_factory=list)

    @property
    def mutable_class_names(self) -> list[str]:
        return sorted(self.classes)

    def describe(self) -> str:
        lines = []
        for name in self.mutable_class_names:
            plan = self.classes[name]
            lines.append(
                f"class {name}: "
                f"{len(plan.instance_fields)} instance + "
                f"{len(plan.static_fields)} static state fields, "
                f"{len(plan.hot_states)} hot states, "
                f"methods: {', '.join(plan.mutable_methods) or '-'}"
            )
            for hs in plan.hot_states:
                lines.append(
                    f"  state [{hs.describe(plan)}] share={hs.share:.2f}"
                )
        for key, info in sorted(self.lifetime_constants.items()):
            lines.append(
                f"lifetime constants via {key} -> {info.target_class}: "
                + ", ".join(
                    f"{k}={v!r}"
                    for k, v in sorted(info.field_values_by_name.items())
                )
            )
        return "\n".join(lines) or "(empty plan)"
