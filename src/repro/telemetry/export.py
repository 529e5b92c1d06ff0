"""Exporters: Chrome ``trace_event`` JSON, flat metrics JSON, and a
human ``--stats``-style text report.

The Chrome format is the JSON Array/Object format consumed by
``chrome://tracing`` and Perfetto: a top-level ``traceEvents`` list
whose entries carry ``name``/``ph``/``ts`` (microseconds)/``pid``/
``tid``.  Duration events export as *complete* events (``ph: "X"`` with
``dur``); everything else as thread-scoped instants (``ph: "i"``).
Gauge histories export as counter events (``ph: "C"``) so swap rate,
cumulative compile seconds, and IC hit rate render as counter tracks
over the same timeline in Perfetto.
"""

from __future__ import annotations

import json
from typing import Any

from repro.telemetry.core import Telemetry
from repro.telemetry.events import EVENT_CATEGORIES

#: Synthetic ids — JxVM is single-process, single-thread.
TRACE_PID = 1
TRACE_TID = 1


def to_chrome_trace(telemetry: Telemetry,
                    process_name: str = "JxVM") -> dict[str, Any]:
    """The retained events as a Chrome-trace dict (JSON Object format)."""
    trace_events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "args": {"name": process_name},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "args": {"name": "vm"},
        },
    ]
    for event in telemetry.bus.events():
        ts_us = event.ts * 1e6
        entry: dict[str, Any] = {
            "name": event.name,
            "cat": EVENT_CATEGORIES.get(event.name, "vm"),
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "args": dict(event.args),
        }
        if event.dur is not None:
            # Complete event: ts is the start, dur the extent.
            dur_us = event.dur * 1e6
            entry["ph"] = "X"
            entry["ts"] = ts_us - dur_us
            entry["dur"] = dur_us
        else:
            entry["ph"] = "i"
            entry["ts"] = ts_us
            entry["s"] = "t"
        trace_events.append(entry)
    # Counter tracks: replay each gauge's bounded history as "C" events.
    # Gauge samples carry raw perf_counter timestamps; rebase them onto
    # the event-bus epoch so they share the events' time axis.  Samples
    # taken before the bus existed clamp to 0, non-numeric gauges skip.
    epoch = telemetry.bus.epoch
    for name, gauge in sorted(telemetry.metrics.gauges.items()):
        for sample_ts, value in gauge.history:
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            trace_events.append({
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": max(0.0, (sample_ts - epoch) * 1e6),
                "pid": TRACE_PID,
                "tid": TRACE_TID,
                "args": {"value": value},
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "emitted": telemetry.bus.total_emitted,
            "dropped": telemetry.bus.dropped,
        },
    }


def write_chrome_trace(telemetry: Telemetry, path: str,
                       process_name: str = "JxVM") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(telemetry, process_name), handle)


def to_metrics_json(telemetry: Telemetry) -> dict[str, Any]:
    """Flat JSON dump: counters, gauges, histograms, event totals."""
    return telemetry.summary()


def format_text_report(telemetry: Telemetry,
                       title: str = "JxVM telemetry") -> str:
    """The human report ``jx stats`` prints."""
    summary = telemetry.summary()
    lines = [f"== {title} =="]
    ev = summary["events"]
    lines.append(
        f"events: {ev['total']} emitted, {ev['retained']} retained, "
        f"{ev['dropped']} dropped (capacity {ev['capacity']})"
    )
    for name, count in ev["by_name"].items():
        lines.append(f"  {name:24s} {count:>10d}")
    if summary["counters"]:
        lines.append("counters:")
        for name, value in summary["counters"].items():
            lines.append(f"  {name:40s} {value:>12d}")
    if summary["gauges"]:
        lines.append("gauges:")
        for name, value in summary["gauges"].items():
            lines.append(f"  {name:40s} {value!r:>12s}")
    if summary["histograms"]:
        lines.append("histograms:")
        for name, h in summary["histograms"].items():
            lines.append(
                f"  {name}: count={h['count']} sum={h['sum']:.6g} "
                f"mean={h['mean']:.6g} min={_fmt(h['min'])} "
                f"max={_fmt(h['max'])}"
            )
            populated = [
                b for b in h["buckets"] if b["count"]
            ]
            if populated:
                lines.append(
                    "    "
                    + " | ".join(
                        f"<={_fmt(b['le'])}: {b['count']}"
                        if b["le"] is not None
                        else f"+Inf: {b['count']}"
                        for b in populated
                    )
                )
    return "\n".join(lines)


def format_opt_pass_report(telemetry: Telemetry) -> str:
    """The optimizer-pass budget report ``jx stats`` appends.

    Ranks every ``opt.pass_seconds.*`` histogram by total seconds spent,
    so the most expensive pass tops the table.  Empty string when the
    run never invoked the optimizer.
    """
    summary = telemetry.summary()
    prefix = "opt.pass_seconds."
    rows = [
        (name[len(prefix):], h["count"], h["sum"], h["mean"])
        for name, h in summary["histograms"].items()
        if name.startswith(prefix)
    ]
    if not rows:
        return ""
    rows.sort(key=lambda r: r[2], reverse=True)
    total = sum(r[2] for r in rows) or 1.0
    lines = ["opt pass budget (ranked by total seconds):"]
    lines.append(
        f"  {'pass':12s} {'runs':>6s} {'total s':>11s} "
        f"{'mean s':>11s} {'share':>7s}"
    )
    for name, count, total_s, mean in rows:
        lines.append(
            f"  {name:12s} {count:>6d} {total_s:>11.6f} "
            f"{mean:>11.6f} {total_s / total:>6.1%}"
        )
    return "\n".join(lines)


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"
