"""The shared code space: one program world, many sessions.

A :class:`CodeSpace` builds a complete program world **once** — link,
mutation-manager attach (shareable plans only), adaptive warmup to the
final compiled tiers — then *freezes* it by retiring every method's
promotion threshold and quickening every method the warmup left
unquickened.  After the freeze nothing in the world is ever written
again:

* class/TIB/IMT dispatch tables — patched only by the installer and by
  static-state re-evaluation, and neither runs post-freeze (adaptive
  promotion is retired; static-state plans are excluded by
  :mod:`repro.server.shareable`);
* compiled code and opt IR — produced by compiles, which the retired
  thresholds make unreachable;
* quickened bodies — built on a method's first interpreted call, and
  the freeze has already built every one;
* special TIBs and the value→TIB swap tables — created exclusively at
  manager attach time;
* JTOC *method cells* — patched only by the installer.

What remains mutable is exactly the per-session layer (heap accounting,
static field *values*, object TIB pointers, mutation stats, the output
buffer), and :class:`repro.server.Session` gives each tenant a private
copy.  The only shared writes sessions perform are the benign ones:
inline-cache publication (serialized, values-before-key —
:mod:`repro.bytecode.quicken`), sampling counters (advisory), and the
compile cache (per-key locked).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any

from repro.bytecode.classfile import ProgramUnit
from repro.server.shareable import ShareabilityFinding, filter_shareable_plan
from repro.telemetry.core import maybe as _tel_maybe
from repro.vm.adaptive import AdaptiveConfig
from repro.vm.compiled import NEVER
from repro.vm.runtime import VM, VMConfig


def _warmup_config() -> AdaptiveConfig:
    """Aggressive promotion for the warmup run: the template should
    reach the final tiers in one pass so sessions never want for
    compiled code."""
    return AdaptiveConfig(opt1_ticks=16, opt2_ticks=32)


class CodeSpace:
    """An immutable-once-frozen program world shared by sessions.

    Build cost (link + warmup compiles + quickening every method) is
    paid once in ``__init__``; :meth:`create_session` afterwards costs one
    static-field list copy plus a handful of counter objects.
    """

    def __init__(
        self,
        program: ProgramUnit,
        mutation_plan: Any = None,
        adaptive_config: AdaptiveConfig | None = None,
        compile_cache: Any = None,
        config: VMConfig | None = None,
        telemetry: Any = None,
        warmup_runs: int = 1,
        warmup_seed: int = 42,
    ) -> None:
        start = time.perf_counter()
        self.telemetry = telemetry
        plan, findings = filter_shareable_plan(mutation_plan, telemetry)
        self.shareability_findings: list[ShareabilityFinding] = findings
        #: The template VM *is* the program world; its session-state
        #: layer is consumed by warmup and never read again.
        self.vm = VM(
            program,
            mutation_plan=plan,
            adaptive_config=adaptive_config or _warmup_config(),
            seed=warmup_seed,
            telemetry=telemetry,
            compile_cache=compile_cache,
            config=config,
        )
        self.warmup_output = ""
        for _ in range(max(0, warmup_runs)):
            self.warmup_output = self.vm.run().output
        self._freeze()
        self.frozen = True
        self.build_seconds = time.perf_counter() - start
        self._lock = threading.Lock()
        self.sessions_created = 0
        #: Sessions served from the already-built space — each one is a
        #: full link+warmup+quicken avoided (``server.codespace_hits``).
        self.codespace_hits = 0

    def _freeze(self) -> None:
        """Retire every promotion threshold so no session-time path can
        ever reach the compiler or the installer, and quicken every
        method the warmup did not reach so no session ever builds (or
        validates) a body in the shared world."""
        for rm in self.vm.all_runtime_methods():
            rm.samples.threshold = NEVER
        if self.vm.quickener is not None:
            self.vm.quickener.quicken_all()
        # Swap in a disabled *copy*: the caller's AdaptiveConfig may be
        # shared with other VMs and must not be mutated.
        self.vm.adaptive.config = replace(
            self.vm.adaptive.config, enabled=False
        )

    # ------------------------------------------------------------------

    def create_session(self, seed: int = 42, telemetry: Any = None):
        """A new isolated tenant over this frozen world."""
        from repro.server.session import Session

        with self._lock:
            session_id = self.sessions_created
            self.sessions_created += 1
            self.codespace_hits += 1
        tel = _tel_maybe(self.telemetry)
        if tel is not None:
            tel.count("server.codespace_hits")
        return Session(
            self, session_id=session_id, seed=seed, telemetry=telemetry
        )

    # ------------------------------------------------------------------

    def describe(self) -> str:
        lines = [
            f"CodeSpace: {len(self.vm.classes)} classes, "
            f"built in {self.build_seconds:.3f}s, "
            f"{self.sessions_created} sessions created",
        ]
        for finding in self.shareability_findings:
            lines.append(f"  excluded plan {finding}")
        return "\n".join(lines)
