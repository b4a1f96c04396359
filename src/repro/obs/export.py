"""Trace and metrics exporters: Perfetto/Chrome trace JSON and JSONL.

The Chrome trace-event format (the JSON Perfetto's UI and
``chrome://tracing`` both load) models a trace as processes and
threads; we map the leaf node to one process and give every
accelerator instance its own thread, so the realized executions
(``kernel.exec`` span events) render as per-device timeline tracks.
Control-plane events — admissions, plan switches, scheduler decisions,
faults — land on dedicated named tracks as instant events, vertically
aligned with the device work they explain.

All writers serialize with sorted keys and a trailing newline, so a
seeded run exports byte-identical artifacts every time (the CI golden
test depends on this).  The trace writers encode one record per line
through the json module's C encoder (an ``indent`` would force its
pure-Python encoder).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from .metrics import MetricsRegistry
from .tracer import TraceEvent

__all__ = [
    "chrome_trace",
    "write_perfetto_json",
    "write_events_jsonl",
    "write_metrics_json",
    "write_metrics_prom",
]

#: Control-plane tracks: event-kind prefix -> (tid, track name).  Device
#: tracks are allocated dynamically above these.
_CONTROL_TRACKS = {
    "request": (1, "requests"),
    "plan": (2, "planner"),
    "sched": (3, "scheduler"),
    "fault": (4, "faults"),
    "monitor": (5, "monitor"),
    "cluster": (6, "cluster"),
    "slo": (7, "slo"),
}
_FIRST_DEVICE_TID = 10
_PID = 1


def _device_of(event: TraceEvent) -> str:
    return str(event.args.get("device", ""))


def chrome_trace(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """Build the Chrome trace-event document for one event list.

    ``kernel.exec`` events (which carry ``dur_ms``) become complete
    ("X") slices on their device's track; every other kind becomes an
    instant ("i") event on its control track — except ``kernel.dispatch``,
    which lands on the *device* track so dispatch decisions sit next to
    the executions they reserved.  Timestamps convert ms -> µs (the
    format's unit).
    """
    devices = sorted(
        {
            _device_of(e)
            for e in events
            if e.kind in ("kernel.exec", "kernel.dispatch") and _device_of(e)
        }
    )
    device_tid = {
        d: _FIRST_DEVICE_TID + i for i, d in enumerate(devices)
    }

    trace_events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro leaf node"},
        }
    ]
    for prefix, (tid, name) in sorted(_CONTROL_TRACKS.items()):
        trace_events.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": name},
            }
        )
    for device, tid in device_tid.items():
        trace_events.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": f"device {device}"},
            }
        )

    for event in events:
        args = dict(event.args)
        args["seq"] = event.seq
        if event.kind == "kernel.exec" and event.dur_ms is not None:
            trace_events.append(
                {
                    "ph": "X",
                    "pid": _PID,
                    "tid": device_tid[_device_of(event)],
                    "ts": event.ts_ms * 1000.0,
                    "dur": event.dur_ms * 1000.0,
                    "name": event.name or str(event.args.get("kernel", "")),
                    "cat": event.kind,
                    "args": args,
                }
            )
            continue
        if event.kind == "kernel.dispatch":
            tid = device_tid[_device_of(event)]
        else:
            prefix = event.kind.split(".", 1)[0]
            tid = _CONTROL_TRACKS.get(prefix, (0, ""))[0]
        trace_events.append(
            {
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "pid": _PID,
                "tid": tid,
                "ts": event.ts_ms * 1000.0,
                "name": event.name or event.kind,
                "cat": event.kind,
                "args": args,
            }
        )

    return {"displayTimeUnit": "ms", "traceEvents": trace_events}


def write_perfetto_json(
    events: Sequence[TraceEvent], path: Union[str, Path]
) -> Path:
    """Write the Chrome/Perfetto trace JSON (open at ui.perfetto.dev),
    one trace event per line."""
    doc = chrome_trace(events)
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = ",\n".join(map(encode, doc["traceEvents"]))
    out = Path(path)
    out.write_text(
        f'{{"displayTimeUnit": {encode(doc["displayTimeUnit"])}, '
        f'"traceEvents": [\n{lines}\n]}}\n'
    )
    return out


def write_events_jsonl(
    events: Iterable[TraceEvent], path: Union[str, Path]
) -> Path:
    """Write the structured event stream: one sorted-key JSON per line."""
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = [encode(e.to_dict()) for e in events]
    out = Path(path)
    out.write_text("\n".join(lines) + ("\n" if lines else ""))
    return out


def write_metrics_json(
    registry: MetricsRegistry, path: Union[str, Path]
) -> Path:
    """Write the deterministic metrics snapshot."""
    out = Path(path)
    out.write_text(registry.to_json())
    return out


def write_metrics_prom(
    registry: MetricsRegistry, path: Union[str, Path]
) -> Path:
    """Write the Prometheus text exposition of the registry."""
    out = Path(path)
    out.write_text(registry.render_prometheus())
    return out
