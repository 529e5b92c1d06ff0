"""Cache-key construction: stable digests over everything that can
change generated code.

Invalidation is correct by construction (the tentpole requirement):
a compile key commits to

* the **whole program's bytecode** — opt2 inlines callees transitively,
  so a method's generated code can depend on any other method's body;
  hashing the full linked unit (class set, supertypes, field layouts,
  method bytecode) is the conservative closure;
* the **method identity** (declaring class + method key) and **opt
  tier**;
* the **OSR entry pc** for an on-stack-replacement continuation
  (``None`` for general and specialized compiles): a continuation is
  the method lowered with its entry at that loop header, so each pc is
  its own artifact;
* the **specialization bindings** (state-field slots and values, per
  :class:`~repro.opt.specialize.SpecBindings`);
* the **opt-pass configuration** (every :class:`OptConfig` /
  :class:`InlineConfig` field), as its digest — both configs are
  frozen, so an :class:`OptCompiler` computes it once;
* the **mutation environment** — the full mutation plan (hooked fields,
  hot states, lifetime constants, trade-off constants) plus whether
  telemetry is attached, both of which select different hook closures
  and therefore different generated source.  The key carries this
  environment's digest, not its rendering.

The VM-version stamp is *not* part of the per-entry key: it is baked
into the cache directory name (see :mod:`repro.cache.store`), so a
version upgrade busts the whole cache at once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any


def stable_digest(payload: Any) -> str:
    """SHA-256 over a canonical JSON rendering of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Program / method digests
# ---------------------------------------------------------------------------

def _method_payload(minfo: Any) -> list:
    return [
        minfo.key,
        minfo.is_static,
        minfo.access,
        minfo.is_abstract,
        [str(t) for t in minfo.param_types],
        str(minfo.return_type),
        minfo.max_locals,
        [[instr.op.name, repr(instr.arg)] for instr in minfo.code],
    ]


def _class_payload(cinfo: Any) -> list:
    return [
        cinfo.name,
        cinfo.super_name or "",
        sorted(cinfo.interface_names),
        cinfo.is_interface,
        [
            [f.name, str(f.type), f.is_static, f.access]
            for f in cinfo.fields.values()
        ],
        [_method_payload(m) for m in cinfo.methods.values()],
    ]


def program_digest(unit: Any) -> str:
    """Digest of the whole program: any bytecode, field, or hierarchy
    change anywhere produces a different digest (inlining closure)."""
    payload = [
        [unit.entry_class, unit.entry_method],
        sorted(
            (_class_payload(c) for c in unit.classes.values()),
            key=lambda row: row[0],
        ),
    ]
    return stable_digest(payload)


def method_digest(minfo: Any) -> str:
    """Per-method bytecode digest (diagnostics + key-splitting tests)."""
    return stable_digest(_method_payload(minfo))


# ---------------------------------------------------------------------------
# Bindings / config / environment digests
# ---------------------------------------------------------------------------

def bindings_payload(bindings: Any) -> list:
    """Defer to :meth:`SpecBindings.cache_key_payload` — the bindings
    type owns the statement of which of its parts affect codegen."""
    if not bindings:
        return []
    return bindings.cache_key_payload()


def opt_config_payload(config: Any) -> dict:
    return {
        "max_iterations": config.max_iterations,
        "inline": asdict(config.inline),
    }


def opt_config_digest(config: Any) -> str:
    """Digest of :func:`opt_config_payload`, the form a key carries."""
    return stable_digest(opt_config_payload(config))


def environment_payload(vm: Any) -> dict:
    """The VM-construction facts that steer codegen besides bytecode:
    the mutation plan (hooks, hot states, lifetime constants), telemetry
    attachment (selects instrumented hook closures and disables the
    inline fast paths), the attach-time analysis audit (a downgraded
    class loses its hooks and specializations, so the set of downgrades
    shapes compiled code), and the OSR toggle (it decides whether
    specialized code carries mid-frame deopt guards)."""
    manager = getattr(vm, "mutation_manager", None)
    plan_dict = None
    analysis = None
    if manager is not None:
        from repro.profiling.reports import plan_to_dict

        plan_dict = plan_to_dict(manager.plan)
        plan_dict["k"] = manager.plan.config.k
        analysis = {"downgraded": sorted(manager.downgraded_classes)}
    return {
        "plan": plan_dict,
        "telemetry": vm.telemetry is not None,
        "analysis": analysis,
        "osr": bool(getattr(vm.config, "osr", False)),
        # Translation-validation verdict digest: a rejected OSR entry
        # changes what gets compiled, so a hit from a run with different
        # verdicts could resurrect an unvalidated body.  Quickening
        # verdicts stay out: every compile lowers the pristine
        # ``info.code``, never ``quick_code``, and a body TV refuses
        # mid-run must not re-key the compiles that follow.
        "tv": {
            "enabled": bool(getattr(vm.config, "tv", False)),
            "downgrades": sorted(
                key for key in getattr(vm, "tv_downgrades", None) or ()
                if not key.startswith("quicken:")
            ),
        },
    }


def compile_key(
    vm: Any,
    rm: Any,
    opt_level: int,
    bindings: Any,
    config: Any,
    entry_pc: int | None = None,
    *,
    program_dig: str | None = None,
    method_dig: str | None = None,
    env_dig: str | None = None,
    config_dig: str | None = None,
) -> str:
    """The cache key for one (method, tier, bindings, OSR entry pc)
    compile request.  The ``*_dig`` arguments pass digests a caller has
    memoised (see :meth:`repro.cache.store.CompileCache.key_for` and
    :attr:`repro.opt.pipeline.OptCompiler.config_digest`); omitted ones
    are computed here."""
    payload = {
        "program": program_dig or program_digest(vm.unit),
        "class": rm.rclass.name,
        "method": rm.info.key,
        "method_code": method_dig or method_digest(rm.info),
        "opt_level": opt_level,
        "entry_pc": entry_pc,
        "bindings": bindings_payload(bindings),
        "opt_config": config_dig or opt_config_digest(config),
        "env": env_dig or stable_digest(environment_payload(vm)),
    }
    return stable_digest(payload)
