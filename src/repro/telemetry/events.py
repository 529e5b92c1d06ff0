"""Typed, timestamped VM events with ring-buffer retention.

The event taxonomy mirrors the runtime actions the paper's evaluation
counts (TIB swaps, recompilations, specialized-version installs) plus
the adaptive-system transitions that explain *when* they happen:

========================= ==================================================
name                      emitted when
========================= ==================================================
``tib_swap``              an object's TIB pointer moves to a special TIB
``deopt_to_class_tib``    an object's TIB pointer moves back to the class TIB
``hook_fired``            any state-field / constructor-exit hook runs
``state_reeval``          a class's static-side state match is re-applied
``tier_promote``          the adaptive system promotes a method's tier
``osr_enter``             a running interpreter frame transfers into
                          compiled code at a hot loop back-edge
``osr_deopt``             a specialized compiled frame bails back to the
                          interpreter after a TIB swap invalidated it
``compile_begin``         the optimizing compiler starts one version
``compile_end``           ... and finishes it (carries the duration)
``special_install``       a specialized version is installed for a hot state
``online_activate``       the online controller derives and attaches a plan
``opt_pass``              one optimizer pass ran (carries the duration)
``vm_run``                one entry-point execution (carries the duration)
``quicken``               the quickener rewrote one method on its first
                          interpreted call (carries method, sites, fused)
``ic_miss``               a quickened call site's inline cache missed and
                          re-resolved (carries the receiver's TIB kind)
``plan_downgraded``       the attach-time specialization-safety audit
                          detached a class's plan (carries the findings)
========================= ==================================================

Events live in a bounded ring buffer (:class:`EventBus`); when full, the
oldest events are dropped and counted, so telemetry memory is O(capacity)
no matter how long the VM runs.
"""

from __future__ import annotations

import time
from collections import Counter as _TallyCounter
from collections import deque
from typing import Any, Callable

#: The canonical event names (emitters may add more; exporters do not
#: care, but the README taxonomy table documents this set).
EVENT_NAMES = (
    "tib_swap",
    "deopt_to_class_tib",
    "hook_fired",
    "state_reeval",
    "tier_promote",
    "osr_enter",
    "osr_deopt",
    "compile_begin",
    "compile_end",
    "special_install",
    "online_activate",
    "opt_pass",
    "vm_run",
    "quicken",
    "ic_miss",
    "plan_downgraded",
)

#: Event name -> Chrome-trace category, for trace-viewer filtering.
EVENT_CATEGORIES = {
    "tib_swap": "mutation",
    "deopt_to_class_tib": "mutation",
    "hook_fired": "mutation",
    "state_reeval": "mutation",
    "special_install": "mutation",
    "online_activate": "mutation",
    "tier_promote": "adaptive",
    "osr_enter": "adaptive",
    "osr_deopt": "adaptive",
    "compile_begin": "compile",
    "compile_end": "compile",
    "opt_pass": "compile",
    "vm_run": "vm",
    "quicken": "dispatch",
    "ic_miss": "dispatch",
    "plan_downgraded": "analysis",
}

#: Default ring-buffer capacity.
DEFAULT_CAPACITY = 65536


class Event:
    """One timestamped VM event.

    ``ts`` is seconds since the owning bus's epoch; ``dur`` (when not
    None) is the event's duration in seconds — exporters render such
    events as Chrome-trace *complete* ("X") events, instants otherwise.
    """

    __slots__ = ("name", "seq", "ts", "dur", "args")

    def __init__(self, name: str, seq: int, ts: float,
                 dur: float | None = None,
                 args: dict[str, Any] | None = None) -> None:
        self.name = name
        self.seq = seq
        self.ts = ts
        self.dur = dur
        self.args = args or {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Event #{self.seq} {self.name} ts={self.ts:.6f} {self.args}>"


class EventBus:
    """Ordered event sink with bounded retention and subscribers.

    Emission order is total (monotonic ``seq``); the ring buffer keeps
    the most recent ``capacity`` events and counts the rest in
    ``dropped``.  Per-name tallies survive truncation so counters stay
    exact even when the raw events age out.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self.epoch = time.perf_counter()
        self.dropped = 0
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._tally: _TallyCounter[str] = _TallyCounter()
        self._subscribers: list[Callable[[Event], None]] = []

    def emit(self, name: str, dur: float | None = None,
             **args: Any) -> Event:
        """Record one event; returns it (mostly for tests)."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        event = Event(
            name, self._seq, time.perf_counter() - self.epoch, dur, args
        )
        self._seq += 1
        self._events.append(event)
        self._tally[name] += 1
        for fn in self._subscribers:
            fn(event)
        return event

    def subscribe(self, fn: Callable[[Event], None]) -> None:
        """Call ``fn(event)`` on every subsequent emit (live sinks)."""
        self._subscribers.append(fn)

    # ------------------------------------------------------------------

    def events(self, name: str | None = None) -> list[Event]:
        """The retained events (oldest first), optionally by name."""
        if name is None:
            return list(self._events)
        return [e for e in self._events if e.name == name]

    def count(self, name: str) -> int:
        """Total emissions of ``name``, including truncated ones."""
        return self._tally[name]

    @property
    def total_emitted(self) -> int:
        return self._seq

    def counts_by_name(self) -> dict[str, int]:
        return dict(sorted(self._tally.items()))

    def clear(self) -> None:
        self._events.clear()
        self._tally.clear()
        self.dropped = 0
