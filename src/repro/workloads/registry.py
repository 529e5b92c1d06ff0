"""Workload registry: the seven benchmark programs of the paper's
Table 1, each exposed as parameterizable Jx source.

Every workload provides two source builds: ``profile`` (scaled down,
used by the offline mutation pipeline) and ``bench`` (the measured
configuration).  Both must execute the same code paths so the plan
built on the profile run applies to the bench run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bytecode.classfile import ProgramUnit
from repro.lang import compile_source, stdlib_class_names


@dataclass
class WorkloadSpec:
    """One benchmark program."""

    name: str
    description: str
    #: source(scale) -> Jx source text; scale in (0, 1] shrinks work.
    source: Callable[[float], str]
    #: Scale used for offline profiling runs.
    profile_scale: float = 0.1
    #: Scale used for measured runs.
    bench_scale: float = 1.0
    #: Entry class/method (main must exist; warehouse workloads also
    #: expose a per-warehouse entry the harness calls repeatedly).
    entry_class: str = "Main"
    entry_method: str = "main"
    #: Optional per-slice entry for throughput-over-time workloads.
    slice_method: str | None = None
    #: Classes the paper's analysis should find mutable (for tests).
    expected_mutable: tuple[str, ...] = ()

    def profile_source(self) -> str:
        return self.source(self.profile_scale)

    def bench_source(self) -> str:
        return self.source(self.bench_scale)

    def compile_bench(self) -> ProgramUnit:
        return compile_source(
            self.bench_source(),
            filename=f"<{self.name}>",
            entry_class=self.entry_class,
            entry_method=self.entry_method,
        )

    def compile_profile(self) -> ProgramUnit:
        return compile_source(
            self.profile_source(),
            filename=f"<{self.name}:profile>",
            entry_class=self.entry_class,
            entry_method=self.entry_method,
        )

    def table1_counts(self) -> tuple[int, int]:
        """(classes, methods) declared by the workload itself (stdlib
        excluded), mirroring the paper's Table 1 columns."""
        unit = compile_source(
            self.source(0.01), include_stdlib=True, verify=False
        )
        stdlib_names = stdlib_class_names()
        classes = [
            c for name, c in unit.classes.items() if name not in stdlib_names
        ]
        methods = sum(len(c.methods) for c in classes)
        return len(classes), methods


_REGISTRY: dict[str, WorkloadSpec] = {}


def register(spec: WorkloadSpec) -> WorkloadSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate workload {spec.name}")
    _REGISTRY[spec.name] = spec
    return spec


def get_workload(name: str) -> WorkloadSpec:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_workloads() -> list[WorkloadSpec]:
    _ensure_loaded()
    return [spec for _, spec in sorted(_REGISTRY.items())]


#: Paper Table 1 ordering.
PAPER_ORDER = [
    "salarydb",
    "simlogic",
    "csvtoxml",
    "java2xhtml",
    "weka",
    "jbb2000",
    "jbb2005",
]


def paper_workloads() -> list[WorkloadSpec]:
    _ensure_loaded()
    return [_REGISTRY[name] for name in PAPER_ORDER if name in _REGISTRY]


def _ensure_loaded() -> None:
    """Import workload modules so their register() calls run."""
    if _REGISTRY:
        return
    from repro.workloads import (  # noqa: F401
        csvtoxml,
        java2xhtml,
        salarydb,
        simlogic,
        weka,
    )
    from repro.workloads.specjbb import jbb2000, jbb2005  # noqa: F401
