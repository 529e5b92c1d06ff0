"""Cache artifacts: serialized compiled code plus the symbolic pin
table needed to re-link it into a different VM instance.

An artifact (opt1 and opt2 alike) is the generated Python source
(optionally with a marshalled code object), its modeled code size, and
one *pin descriptor* per runtime object the source closes over.
Descriptors name objects symbolically — class names, method keys,
intrinsic names, hook roles — never by identity, so :func:`resolve_pin`
can rebind them against the current VM's JTOC, TIB, and
mutation-manager environment.

Anything that cannot be described symbolically makes the compile
*uncacheable* (reported, never mis-linked): correctness never depends
on the cache.
"""

from __future__ import annotations

import base64
import marshal
from typing import Any

_FLOAT_TAGS = {"inf": float("inf"), "-inf": float("-inf")}


class UnlinkableArtifact(Exception):
    """A cached artifact references something absent from this VM."""


# ---------------------------------------------------------------------------
# Value codec (JSON-safe encoding of Jx runtime constants)
# ---------------------------------------------------------------------------

def encode_value(value: Any) -> Any:
    """Encode a Jx constant for JSON.  Jx constants are bool, int,
    float, str, or None; non-finite floats need tagging (JSON has no
    inf/nan) and everything else is rejected as uncacheable."""
    if isinstance(value, float):
        if value != value:
            return {"$f": "nan"}
        if value in (float("inf"), float("-inf")):
            return {"$f": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    raise UnlinkableArtifact(f"unencodable constant {value!r}")


def decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        tag = value.get("$f")
        if tag == "nan":
            return float("nan")
        if tag in _FLOAT_TAGS:
            return _FLOAT_TAGS[tag]
        raise UnlinkableArtifact(f"unknown value tag {value!r}")
    return value


# ---------------------------------------------------------------------------
# Pin descriptors
# ---------------------------------------------------------------------------

def _manager(vm: Any) -> Any:
    manager = getattr(vm, "mutation_manager", None)
    if manager is None:
        raise UnlinkableArtifact("artifact needs a mutation manager")
    return manager


def resolve_pin(vm: Any, desc: list | tuple) -> Any:
    """Resolve one symbolic pin descriptor against ``vm``.

    Descriptor forms (first element is the kind):

    ========================= =========================================
    ``["value", v]``          the encoded constant itself
    ``["frozenset", [...]]``  frozenset of encoded values
    ``["class", name]``       RuntimeClass
    ``["class_tib", name]``   a class's general TIB
    ``["method", cls, key]``  RuntimeMethod declared by ``cls``
    ``["cell", cls, key]``    a static method's JTOC cell
    ``["intrinsic", name]``   an intrinsic's implementation function
    ``["instance_hook"]``     the manager's shared PUTFIELD state hook
    ``["static_hook", key]``  the PUTSTATIC hook for one state field
    ``["ctor_hook", cls]``    a mutable class's constructor-exit hook
    ``["manager"]``           the mutation manager itself
    ``["mutation_stats"]``    the VM's mutation-stats record (legacy:
                              inline swap counting now reads
                              ``vm.mutation_stats`` at runtime so the
                              invoking session is charged; kept for
                              resolution robustness)
    ``["tib_table1", cls]``   value -> special-TIB map (single-field
                              inline-swap fast path)
    ``["special_tib",         one hot state's special TIB, keyed by
    cls, [values]]``          its encoded instance values (OSR deopt
                              guards compare against it)
    ``["osr_deopt"]``         :func:`repro.vm.osr.deopt_to_interpreter`
    ========================= =========================================
    """
    kind = desc[0]
    try:
        if kind == "value":
            return decode_value(desc[1])
        if kind == "frozenset":
            return frozenset(decode_value(v) for v in desc[1])
        if kind == "class":
            return vm.classes[desc[1]]
        if kind == "class_tib":
            return vm.classes[desc[1]].class_tib
        if kind == "method":
            return vm.classes[desc[1]].own_methods[desc[2]]
        if kind == "cell":
            cell = vm.classes[desc[1]].own_methods[desc[2]].jtoc_cell
            if cell is None:
                raise UnlinkableArtifact(f"no JTOC cell for {desc}")
            return cell
        if kind == "intrinsic":
            from repro.vm.intrinsics import INTRINSICS

            return INTRINSICS[desc[1]].fn
        if kind == "instance_hook":
            return _manager(vm).instance_state_hook()
        if kind == "static_hook":
            return _manager(vm).static_hooks[desc[1]]
        if kind == "ctor_hook":
            return _manager(vm).ctor_hooks[desc[1]]
        if kind == "manager":
            return _manager(vm)
        if kind == "mutation_stats":
            return vm.mutation_stats
        if kind == "tib_table1":
            mcr = _manager(vm).mcrs[desc[1]]
            return {
                key[0]: tib for key, tib in mcr.tib_by_instance.items()
            }
        if kind == "special_tib":
            mcr = _manager(vm).mcrs[desc[1]]
            values = tuple(decode_value(v) for v in desc[2])
            return mcr.tib_by_instance[values]
        if kind == "osr_deopt":
            from repro.vm.osr import deopt_to_interpreter

            return deopt_to_interpreter
    except (KeyError, AttributeError) as exc:
        raise UnlinkableArtifact(f"cannot resolve pin {desc!r}") from exc
    raise UnlinkableArtifact(f"unknown pin kind {desc!r}")


def hook_ref(hook: Any) -> list | None:
    """The symbolic descriptor a hook closure advertises (the mutation
    manager stamps ``cache_ref`` onto every hook it builds)."""
    ref = getattr(hook, "cache_ref", None)
    return list(ref) if ref is not None else None


# ---------------------------------------------------------------------------
# Generated-code artifacts
# ---------------------------------------------------------------------------

def code_artifact(opt_level: int, fn_name: str, source: str,
                  pins: dict[str, list], code: Any,
                  code_bytes: int) -> dict:
    """The artifact for one generated function at ``opt_level``."""
    art = {
        "kind": f"opt{opt_level}",
        "fn_name": fn_name,
        "source": source,
        "code_bytes": code_bytes,
        "pins": [[name, list(desc)] for name, desc in pins.items()],
    }
    if code is not None:
        try:
            art["marshal"] = base64.b64encode(
                marshal.dumps(code)
            ).decode("ascii")
        except ValueError:
            pass  # unmarshallable code object: source fallback suffices
    return art


def link_code(vm: Any, art: dict) -> tuple[str, Any]:
    """Re-link a cached artifact; returns ``(source, executor)``.

    The marshalled code object is preferred (skips re-parsing); the
    stored source is the portable fallback.  Pin resolution happens
    against the *current* VM, which is what makes the cached source safe
    across VM instances.
    """
    namespace: dict[str, Any] = _base_namespace()
    for name, desc in art["pins"]:
        namespace[name] = resolve_pin(vm, desc)
    code = None
    blob = art.get("marshal")
    if blob:
        try:
            code = marshal.loads(base64.b64decode(blob))
        except (ValueError, EOFError, TypeError):
            code = None
    if code is None:
        code = compile(art["source"], f"<jx-{art['kind']}:cached>", "exec")
    exec(code, namespace)
    executor = namespace.get(art["fn_name"])
    if executor is None:
        raise UnlinkableArtifact(
            f"artifact defines no function {art['fn_name']!r}"
        )
    return art["source"], executor


def _base_namespace() -> dict[str, Any]:
    """The static helper globals every generated function expects."""
    from repro.opt.pycodegen import _py_eq, _py_fdiv
    from repro.vm.values import (
        ArrayBoundsError,
        ClassCastError,
        NullPointerError,
        VMArray,
        jx_rem,
        jx_str,
        jx_truncate_div,
    )

    return {
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
