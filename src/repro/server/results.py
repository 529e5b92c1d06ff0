"""Result records for multi-session serving."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any


def output_digest(output: str) -> str:
    """Stable digest of a session's program output, used by the serve
    harness (and CI smoke) to prove cross-tenant isolation: sessions
    started from the same seed must produce identical digests."""
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


@dataclass
class SessionResult:
    """One session's complete run, as observed by the serve driver."""

    session_id: int
    seed: int
    value: Any
    output: str
    digest: str
    wall_seconds: float
    #: Per-session mutation accounting (no other session's swaps bleed
    #: into these — see tests/test_server.py).
    tib_swaps: int
    special_tibs_created: int
    objects_allocated: int
    #: Seconds this session's compiles spent waiting on cache key locks
    #: (0.0 when the code space is warm, which is the steady state).
    error: str | None = None


@dataclass
class ServeReport:
    """Aggregate outcome of serving N sessions over one code space."""

    workload: str
    sessions: int
    workers: int
    results: list[SessionResult] = field(default_factory=list)
    #: Wall time from first session start to last session end.
    wall_seconds: float = 0.0
    #: Sessions completed per second of aggregate wall time.
    throughput: float = 0.0
    #: Per-session latency statistics (seconds).
    latency_mean: float = 0.0
    latency_p50: float = 0.0
    latency_max: float = 0.0
    #: Sessions created from the shared (already-built) code space —
    #: every one after the first avoids a full link+compile+quicken.
    codespace_hits: int = 0
    #: Warmup + freeze cost paid once to build the shared space.
    codespace_build_seconds: float = 0.0
    #: Mutable-class plans excluded from the shared space by the
    #: shareability gate (repro.server.shareable).
    plans_excluded: int = 0

    @property
    def digests(self) -> list[str]:
        return [r.digest for r in self.results]

    @property
    def digests_identical(self) -> bool:
        """True when every session produced byte-identical output — the
        zero-cross-tenant-leakage invariant for same-seed sessions."""
        digests = self.digests
        return len(set(digests)) <= 1

    @property
    def errors(self) -> list[str]:
        return [r.error for r in self.results if r.error]

    def describe(self) -> str:
        lines = [
            f"serve {self.workload}: {self.sessions} sessions / "
            f"{self.workers} workers",
            f"  wall {self.wall_seconds:.3f}s  "
            f"throughput {self.throughput:.2f} sessions/s",
            f"  latency mean {self.latency_mean:.3f}s  "
            f"p50 {self.latency_p50:.3f}s  max {self.latency_max:.3f}s",
            f"  codespace: build {self.codespace_build_seconds:.3f}s, "
            f"{self.codespace_hits} session(s) shared it"
            + (f", {self.plans_excluded} plan(s) excluded"
               if self.plans_excluded else ""),
            f"  digests identical: {self.digests_identical}",
        ]
        if self.errors:
            lines.append(f"  ERRORS: {self.errors}")
        return "\n".join(lines)
