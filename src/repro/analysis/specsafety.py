"""Specialization-safety audit (``jx lint`` client 3).

Special-TIB code is selected *through* the TIB, so it is only sound if
every store to a bound state field re-evaluates the object's TIB before
anything can observe it.  Fig. 4 gets this by hooking every state-field
write: the hook runs at the write, so no path can see a stale TIB.  The
obligation left to prove is therefore **hook completeness** — every
PUTFIELD/PUTSTATIC that resolves to a state field of an attached plan
carries the manager's hook for it.

:func:`audit_attached_plans` groups violations per mutable-class plan
so :class:`~repro.mutation.manager.MutationManager` can downgrade a
violating class (drop its special TIBs) instead of running unsound
specialized code; :func:`lifetime_findings` re-proves the plan's
lifetime constants with the CFG escape analysis.
"""

from __future__ import annotations

from typing import Any

from repro.bytecode.opcodes import Op
from repro.analysis.findings import Finding


# ---------------------------------------------------------------------------
# Site-level findings over an attached VM
# ---------------------------------------------------------------------------

def _plan_key_sets(manager: Any) -> tuple[dict, dict]:
    """(instance field key -> class names, static field key -> class
    names) over the *attached* plans (downgraded classes excluded)."""
    instance: dict[str, list[str]] = {}
    static: dict[str, list[str]] = {}
    for name, mcr in manager.mcrs.items():
        for spec in mcr.plan.instance_fields:
            instance.setdefault(spec.key, []).append(name)
        for spec in mcr.plan.static_fields:
            static.setdefault(spec.key, []).append(name)
    return instance, static


def site_findings(vm: Any, manager: Any = None) -> list[Finding]:
    """Hook-completeness findings (check ``hook-completeness``) for
    every PUTFIELD/PUTSTATIC that resolves to a state field of an
    attached plan but lacks the manager's hook for it."""
    if manager is None:
        manager = getattr(vm, "mutation_manager", None)
    if manager is None:
        return []
    unit = vm.unit
    instance_keys, static_keys = _plan_key_sets(manager)
    if not instance_keys and not static_keys:
        return []
    instance_hook = manager._instance_hook
    findings: list[Finding] = []
    for method in unit.all_methods():
        if method.is_abstract or not method.code:
            continue
        for i, instr in enumerate(method.code):
            if instr.op is Op.PUTFIELD:
                cls_name, field_name = instr.arg
                finfo = unit.lookup_field(cls_name, field_name)
                if finfo is None:
                    continue  # cannot be a state field (plan resolves)
                key = f"{finfo.declaring_class}.{finfo.name}"
                if key not in instance_keys:
                    continue
                hook = instr.state_hook
                if hook is None:
                    findings.append(Finding(
                        "hook-completeness", method.qualified_name, i, key,
                        "state-field write carries no swap hook; this "
                        "store would silently skip TIB re-evaluation",
                    ))
                elif hook is not instance_hook:
                    findings.append(Finding(
                        "hook-completeness", method.qualified_name, i, key,
                        "state-field write carries an unrecognized hook",
                    ))
            elif instr.op is Op.PUTSTATIC:
                cls_name, field_name = instr.arg
                finfo = unit.lookup_field(cls_name, field_name)
                if finfo is None:
                    continue
                key = f"{finfo.declaring_class}.{finfo.name}"
                if key not in static_keys:
                    continue
                if instr.state_hook is not manager.static_hooks.get(key):
                    findings.append(Finding(
                        "hook-completeness", method.qualified_name, i, key,
                        "static state-field write does not carry its "
                        "class's static swap hook",
                    ))
    return findings


def audit_attached_plans(
    manager: Any, findings: list[Finding] | None = None
) -> dict[str, list[Finding]]:
    """Group site findings by the mutable-class plan they violate.

    Any class with at least one finding runs unsound specialized code
    if left attached; the manager downgrades it (see
    ``MutationManager._audit_plans``)."""
    if findings is None:
        findings = site_findings(manager.vm, manager)
    instance_keys, static_keys = _plan_key_sets(manager)
    owners: dict[str, list[str]] = {}
    for key, names in instance_keys.items():
        owners.setdefault(key, []).extend(names)
    for key, names in static_keys.items():
        owners.setdefault(key, []).extend(names)
    per_class: dict[str, list[Finding]] = {}
    for f in findings:
        for name in owners.get(f.subject, ()):
            per_class.setdefault(name, []).append(f)
    return per_class


# ---------------------------------------------------------------------------
# Lifetime-constant re-validation
# ---------------------------------------------------------------------------

def lifetime_findings(vm: Any) -> list[Finding]:
    """Re-prove the plan's published lifetime constants with the CFG
    escape analysis: a plan entry the analysis no longer derives means
    the specialization inliner would bind a value some path can change."""
    manager = getattr(vm, "mutation_manager", None)
    if manager is None or not manager.plan.lifetime_constants:
        return []
    from repro.mutation.lifetime import analyze_lifetime_constants

    fresh = analyze_lifetime_constants(
        vm.unit, list(manager.plan.classes), engine="cfg"
    )
    findings: list[Finding] = []
    for key, info in manager.plan.lifetime_constants.items():
        proved = fresh.get(key)
        if proved is None:
            findings.append(Finding(
                "lifetime-escape", key.rpartition(".")[0], -1, key,
                "plan binds lifetime constants through this reference "
                "field, but the escape analysis cannot prove it "
                "non-escaping / single-constructor",
            ))
            continue
        for fname, value in info.field_values_by_name.items():
            got = proved.field_values_by_name.get(fname)
            if got != value:
                findings.append(Finding(
                    "lifetime-escape", key.rpartition(".")[0], -1, key,
                    f"plan binds {info.target_class}.{fname}={value!r} "
                    f"but the analysis derives {got!r}",
                ))
    return findings
