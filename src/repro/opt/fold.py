"""Compile-time evaluation of pure IR operations.

The folding semantics must match the interpreter exactly — the
mutation-equivalence property tests compare program output across
execution tiers, so any divergence here is a real miscompile.
"""

from __future__ import annotations

from typing import Any

from repro.vm.values import jx_rem, jx_str, jx_truncate_div


class NoFold(Exception):
    """Raised when an operation cannot be safely folded."""


def fold_op(op: str, vals: list[Any]) -> Any:
    """Evaluate ``op`` over constant operands; raises :class:`NoFold`."""
    try:
        if op == "add":
            return vals[0] + vals[1]
        if op == "sub":
            return vals[0] - vals[1]
        if op == "mul":
            return vals[0] * vals[1]
        if op == "idiv":
            if vals[1] == 0:
                raise NoFold  # preserve the runtime error
            return jx_truncate_div(vals[0], vals[1])
        if op == "fdiv":
            if vals[1] == 0:
                # Interpreter semantics: IEEE inf/nan.  NaN is unequal to
                # itself, which confuses the const lattice; don't fold.
                raise NoFold
            return vals[0] / vals[1]
        if op == "irem":
            if vals[1] == 0:
                raise NoFold
            return jx_rem(vals[0], vals[1])
        if op == "shl":
            return vals[0] << vals[1]
        if op == "shr":
            return vals[0] >> vals[1]
        if op == "band":
            return vals[0] & vals[1]
        if op == "bor":
            return vals[0] | vals[1]
        if op == "bxor":
            return vals[0] ^ vals[1]
        if op == "lt":
            return vals[0] < vals[1]
        if op == "le":
            return vals[0] <= vals[1]
        if op == "gt":
            return vals[0] > vals[1]
        if op == "ge":
            return vals[0] >= vals[1]
        if op == "eq":
            return vals[0] == vals[1]
        if op == "ne":
            return vals[0] != vals[1]
        if op == "concat":
            return jx_str(vals[0]) + jx_str(vals[1])
        if op == "neg":
            return -vals[0]
        if op == "not":
            return not vals[0]
        if op == "i2d":
            return float(vals[0])
        if op == "d2i":
            return int(vals[0])
        if op == "mov":
            return vals[0]
    except NoFold:
        raise
    except Exception as exc:  # TypeError on bad mixes, etc.
        raise NoFold from exc
    raise NoFold
