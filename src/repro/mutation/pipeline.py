"""The offline pipeline (paper Fig. 3):

1. identify a list of hot methods               (profiling run #1);
2. derive state fields for hot classes          (EQ1 static analysis);
3. find hot states for hot classes              (profiling run #2);
4. object lifetime constant analysis            (static);
5. assemble the :class:`~repro.mutation.plan.MutationPlan` that is fed
   to the VM at startup.

Profiling runs execute a (typically scaled-down) build of the same
source; the plan references program entities by name, so it applies to
any later VM running that source.
"""

from __future__ import annotations

from typing import Callable

from repro.bytecode.classfile import ProgramUnit
from repro.bytecode.opcodes import Op
from repro.lang import compile_source
from repro.mutation.hot_states import derive_hot_states
from repro.mutation.lifetime import analyze_lifetime_constants
from repro.mutation.plan import (
    MutableClassPlan,
    MutationConfig,
    MutationPlan,
    StateFieldSpec,
)
from repro.mutation.state_fields import derive_state_fields
from repro.profiling.method_profiler import ProfileResult, profile_methods
from repro.profiling.value_profiler import ValueProfiler


def _methods_reading_fields(
    unit: ProgramUnit,
    class_name: str,
    field_keys: set[str],
    has_instance_fields: bool,
) -> list[str]:
    """Keys of methods declared by ``class_name`` that read any of the
    given state fields — the mutation-method candidates (paper §3.2.2:
    "Only the methods declared by a mutable class are candidates").

    Private instance methods are excluded when the class depends on any
    instance field: their ``invokespecial`` dispatch is statically bound
    and cannot reach a special TIB (paper §3.2.3 — they are mutable only
    for classes "solely dependent on static state fields").
    """
    cls = unit.classes[class_name]
    out = []
    for key, method in cls.methods.items():
        if method.is_abstract or method.is_constructor:
            continue
        if (
            method.is_private
            and not method.is_static
            and has_instance_fields
        ):
            continue
        reads = False
        for instr in method.code:
            if instr.op in (Op.GETFIELD, Op.GETSTATIC):
                c, f = instr.arg
                finfo = unit.lookup_field(c, f)
                if (
                    finfo is not None
                    and f"{finfo.declaring_class}.{finfo.name}" in field_keys
                ):
                    reads = True
                    break
        if reads:
            out.append(key)
    return sorted(out)


def build_mutation_plan(
    source: str,
    entry_class: str = "Main",
    entry_method: str = "main",
    config: MutationConfig | None = None,
    seed: int = 42,
    compile_fn: Callable[..., ProgramUnit] | None = None,
) -> MutationPlan:
    """Run the full offline pipeline over ``source``.

    Two instrumented executions are performed (hot methods, then state
    field values); both use fresh compilations of the source since a
    linked unit is owned by its VM.
    """
    config = config or MutationConfig()
    compile_fn = compile_fn or (
        lambda: compile_source(
            source, entry_class=entry_class, entry_method=entry_method
        )
    )

    # Step 1: hot methods.
    unit1 = compile_fn()
    profile: ProfileResult = profile_methods(unit1, seed=seed)
    hotness = profile.hotness_by_method()
    hot_methods = [
        m.qualified_name for m in profile.hot_methods(config.hot_method_share)
    ]
    hot_classes = profile.hot_classes(config.hot_method_share)
    # The stdlib is infrastructure (the paper's boot classpath), not a
    # mutation target.
    from repro.lang import stdlib_class_names

    hot_classes -= stdlib_class_names()

    # Step 2: state fields via EQ1 (on the already-linked unit1).
    state_fields = derive_state_fields(unit1, hot_classes, hotness, config)
    if not state_fields:
        return MutationPlan(config=config, hot_methods=hot_methods)

    # Step 3: hot states via value profiling (fresh unit).
    unit2 = compile_fn()
    candidates = {}
    for cls_name, specs in state_fields.items():
        instance = [s for s in specs if not s.is_static]
        static = [s for s in specs if s.is_static]
        candidates[cls_name] = (instance, static)
    profiler = ValueProfiler(unit2, candidates, seed=seed)
    value_profiles = profiler.run()

    plan = MutationPlan(config=config, hot_methods=hot_methods)
    for cls_name, profile2 in value_profiles.items():
        inst, stat, hot_states = derive_hot_states(profile2, config)
        if not hot_states:
            continue
        keys = {s.key for s in inst} | {s.key for s in stat}
        mutable_methods = _methods_reading_fields(
            unit1, cls_name, keys, has_instance_fields=bool(inst)
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

    # Step 4: object lifetime constants for the mutable classes.
    if plan.classes:
        plan.lifetime_constants = analyze_lifetime_constants(
            unit1, plan.mutable_class_names
        )
    return plan
