"""One tenant's session over a shared :class:`CodeSpace`.

A Session *is a* VM for everything the runtime touches — the
interpreter, generated opt1/opt2 code, the mutation
hooks, and the quickened dispatch all take ``vm`` parameters and find
the same attribute surface here.  The difference is in what the
attributes point at:

=====================  ==================================================
owned (private)        ``heap``, ``intrinsic_ctx`` (output + RNG),
                       ``mutation_stats``, ``compile_stats``,
                       ``telemetry``, the ``<clinit>``-ran flag, and
                       ``jtoc`` — a :class:`~repro.vm.jtoc.JTOCView`
                       whose field storage starts from the pristine
                       (pre-``<clinit>``) snapshot
borrowed (shared)      ``unit``, ``classes``, ``tib_space``, compiled
                       code + quickened bodies, ``mutation_manager``,
                       ``quickener``, ``compile_cache``, ``config``
=====================  ==================================================

Objects a session allocates are reachable only from its own frames and
its own static-field view, so TIB-pointer swaps — the paper's mutation
mechanism — are automatically session-local.  The session's adaptive
system is *disabled* (the space froze every threshold to NEVER at build
time), so no session-time path can reach the compiler or the code
installer, which are the only writers of shared dispatch structures.
"""

from __future__ import annotations

from typing import Any

from repro.vm.adaptive import AdaptiveConfig, AdaptiveSystem
from repro.vm.jtoc import JTOCView
from repro.vm.runtime import VM


class Session(VM):
    """A per-tenant VM facade borrowing a CodeSpace's program world."""

    def __init__(
        self,
        space: Any,
        session_id: int = 0,
        seed: int = 42,
        telemetry: Any = None,
    ) -> None:
        if telemetry is True:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        self.telemetry = telemetry
        self.space = space
        self.session_id = session_id
        self.seed = seed
        # The private layer (exactly what VM._init_session_state names).
        self._init_session_state(seed)
        # The borrowed world: every attribute _build_program_world would
        # have built, aliased from the frozen template instead.
        template = space.vm
        self.unit = template.unit
        self.compile_cache = template.compile_cache
        self.linker = template.linker
        self.classes = template.classes
        self.tib_space = template.tib_space
        self.pristine_statics = template.pristine_statics
        #: Private static-field *values* over shared method cells.
        self.jtoc = JTOCView(template.jtoc, template.pristine_statics)
        self.installer = template.installer
        self.mutation_manager = template.mutation_manager
        self.config = template.config
        self.quickener = template.quickener
        self._opt_compiler = template._opt_compiler
        # Sessions never OSR-enter (frozen thresholds are NEVER), but
        # deopt guards baked into shared specialized code call
        # osr-machinery through the invoking vm, and diagnostics read
        # vm.osr uniformly.
        self.osr = template.osr
        # Published by the manager at attach time; plain dict reads.
        self.lifetime_constants = getattr(
            template, "lifetime_constants", {}
        )
        # The interpreter reads ``vm.adaptive`` unconditionally; give it
        # a disabled one (ticks never cross the frozen NEVER thresholds,
        # so ``on_hot`` is unreachable anyway).
        self.adaptive = AdaptiveSystem(self, AdaptiveConfig(enabled=False))

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop every reference into the session's private layer so a
        finished tenant pins no heap; the shared world is untouched.
        The session is unusable afterwards."""
        self._init_session_state(self.seed)
        self.jtoc = JTOCView(self.space.vm.jtoc, self.pristine_statics)

    def __repr__(self) -> str:
        return (
            f"<Session #{self.session_id} seed={self.seed} "
            f"of {self.space!r}>"
        )
