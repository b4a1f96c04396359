"""Deterministic sim-clock span tracing.

The tracer records *typed events* over the simulation clock — never the
wall clock — so the trace of a seeded run is bit-identical across
repeats, machines and worker counts.  Event timestamps are the same
millisecond floats the simulator itself computes (arrival times, device
reservations, fault instants), and the only ordering is the emission
sequence number, which is a pure function of the request stream.

Two implementations share one interface:

* :class:`NullTracer` — the default everywhere.  ``enabled`` is False
  and every hook site guards on it, so an untraced run executes the
  exact pre-observability code path (the bit-identical guarantee the
  fault-injection and parallel-DSE suites already enforce).
* :class:`SpanTracer` — an in-memory collector.  ``emit`` appends a
  :class:`TraceEvent`; exporters (:mod:`repro.obs.export`) turn the
  event list into Perfetto/Chrome trace JSON and a JSONL stream.

The event taxonomy is closed: :data:`EVENT_SCHEMA` maps every event
kind to the argument fields it must carry, and ``emit`` validates
against it, so downstream consumers (the golden schema test, the
Perfetto exporter's track router) can rely on the shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "EVENT_SCHEMA",
    "TraceEvent",
    "NullTracer",
    "SpanTracer",
    "NULL_TRACER",
]


#: The closed event taxonomy: kind -> required argument fields.
#:
#: * ``request.*`` — the request lifecycle: admission, load shedding,
#:   completion, abandonment (retry budget exhausted).
#: * ``sched.*``   — the two-step scheduler: Step-1 (Eq. 2-4) per-kernel
#:   placements and Step-2 (Eq. 5) accepted energy swaps.
#: * ``plan.*``    — the leaf node's operating-plan machinery: plan
#:   (re)computation and light/heavy mode switches.
#: * ``kernel.*``  — device-level execution: dispatch decisions (with
#:   the predicted window) and the realized executions (final, after
#:   batch growth), which carry ``dur_ms`` and form the Perfetto
#:   per-device tracks.
#: * ``fault.*``   — injected faults, retries, missed-heartbeat
#:   detections, failover replans and recoveries.
#: * ``monitor.*`` — the monitor's windows at each replan tick
#:   (windowed tail latency, arrival rate).
#: * ``cluster.*`` — fleet-layer decisions: per-request routing (the
#:   power-of-two-choices pick with its sampled candidates), node
#:   launches/terminations, and per-interval autoscaler evaluations.
#: * ``slo.*``     — SLO evaluation over the windowed rollups:
#:   multi-window burn-rate alerts at their firing edge.
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    "request.admit": ("req", "priority"),
    "request.shed": ("req",),
    "request.complete": ("req", "latency_ms", "retries"),
    "request.abandon": ("req", "kernel", "retries"),
    "sched.place": ("kernel", "device", "point", "start_ms", "end_ms"),
    "sched.swap": (
        "kernel",
        "device_before",
        "device_after",
        "point_before",
        "point_after",
        "energy_saved_mj",
        "makespan_ms",
    ),
    "plan.computed": ("mode", "makespan_ms", "kernels"),
    "plan.mode": ("mode", "makespan_ms"),
    "kernel.dispatch": ("req", "kernel", "device", "point", "start_ms", "end_ms"),
    "kernel.exec": ("kernel", "device", "point", "power_w", "batch"),
    "fault.inject": ("fault", "device"),
    "fault.retry": ("req", "kernel", "device", "fault", "attempt"),
    "fault.heartbeat_miss": ("device", "last_beat_ms"),
    "fault.failover": ("device", "failed_ms", "detected_ms"),
    "fault.recover": ("device",),
    "monitor.snapshot": ("tail_ms", "arrival_rate_rps"),
    "cluster.route": ("req", "node", "candidates", "queue_ms", "locality"),
    "cluster.launch": ("node", "reason", "ready_ms"),
    "cluster.terminate": ("node", "reason"),
    "cluster.scale": ("n_nodes", "demand_rps", "utilization"),
    "slo.alert": ("slo", "series", "burn_fast", "burn_slow", "objective"),
}


@dataclass(frozen=True)
class TraceEvent:
    """One trace record on the simulation clock.

    ``dur_ms`` is set only for *span* events (realized device
    executions); instant events leave it ``None``.  ``args`` carries the
    kind-specific payload named by :data:`EVENT_SCHEMA`.
    """

    seq: int
    ts_ms: float
    kind: str
    name: str
    args: Mapping[str, Any] = field(default_factory=dict)
    dur_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (one JSONL line)."""
        out: Dict[str, Any] = {
            "seq": self.seq,
            "ts_ms": self.ts_ms,
            "kind": self.kind,
            "name": self.name,
            "args": dict(self.args),
        }
        if self.dur_ms is not None:
            out["dur_ms"] = self.dur_ms
        return out


class NullTracer:
    """The default no-op tracer.

    Hook sites guard every emission on :attr:`enabled`, so an untraced
    run never allocates an event, never formats a string, and never
    touches a lock — the request path is byte-for-byte the
    pre-observability code.
    """

    enabled: bool = False
    #: Simulation clock the instrumented layers advance; a scheduler or
    #: monitor emitting without an explicit timestamp stamps this.
    now_ms: float = 0.0

    def emit(
        self,
        kind: str,
        name: str = "",
        t_ms: Optional[float] = None,
        dur_ms: Optional[float] = None,
        **args: Any,
    ) -> None:
        """Record nothing."""

    @property
    def events(self) -> List[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0


#: Shared inert instance; safe because it holds no state.
NULL_TRACER = NullTracer()


class SpanTracer(NullTracer):
    """In-memory collecting tracer.

    Events are appended in emission order with a monotonically
    increasing ``seq``; because the simulator is single-threaded over a
    deterministic arrival stream, the full event list is a pure function
    of (system, app, arrivals, seed, fault schedule).

    Collection is two-stage: ``emit`` validates and appends a *compact
    raw record*; the :class:`TraceEvent` objects materialize lazily the
    first time the event list is read (``events``, ``by_kind``,
    iteration by exporters).  Recording therefore costs one tuple per
    event on the simulation's hot path while reads see the exact same
    objects an eager tracer would build — ``seq`` is the record's
    position in the combined stream either way.  The simulation
    engine's traced dispatch programs append raw records (tags 1-3
    below) straight to the same staging list, between the
    schema-checked ``emit`` calls of the control plane, producing a
    stream byte-identical to a traced ``LeafNode.submit`` loop —
    tested in ``tests/test_engine.py``.

    Raw-record tags (first tuple element):

    * ``0`` — generic: ``(0, kind, name, ts_ms, dur_ms, args)`` (what
      ``emit`` stages; args are fully formed).
    * ``1`` — request admit: ``(1, t_ms, req, priority)``.
    * ``2`` — kernel dispatch: ``(2, ready_ms, req, kernel, device,
      point, start_ms, end_ms)``.
    * ``3`` — request complete: ``(3, completion_ms, req, latency_ms)``.

    Tags 1-3 carry raw floats; rounding to ``submit``'s six emitted
    decimals happens at materialization, off the timed path.
    """

    enabled = True

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        #: Staged raw records, strictly after ``_events`` in stream
        #: order; drained in place by :meth:`_materialize`, never
        #: rebound (traced dispatch programs hold its ``append``).
        self._raw: List[tuple] = []
        self.now_ms = 0.0

    def emit(
        self,
        kind: str,
        name: str = "",
        t_ms: Optional[float] = None,
        dur_ms: Optional[float] = None,
        **args: Any,
    ) -> None:
        """Stage one event; ``t_ms`` defaults to the current sim clock.

        The kind must be in :data:`EVENT_SCHEMA` and carry at least the
        schema's required fields — a typo'd hook fails loudly in tests
        instead of producing an unparseable trace.
        """
        required = EVENT_SCHEMA.get(kind)
        if required is None:
            raise ValueError(f"unknown trace event kind {kind!r}")
        missing = [f for f in required if f not in args]
        if missing:
            raise ValueError(f"event {kind!r} missing fields {missing}")
        ts = self.now_ms if t_ms is None else t_ms
        self._raw.append((0, kind, name, ts, dur_ms, args))

    def _materialize(self) -> None:
        """Drain staged raw records into :class:`TraceEvent` objects."""
        raw = self._raw
        if not raw:
            return
        events = self._events
        append = events.append
        for rec in raw:
            tag = rec[0]
            if tag == 0:
                _, kind, name, ts, dur, args = rec
                append(TraceEvent(len(events), ts, kind, name, args, dur))
            elif tag == 2:
                _, ready, rq, kernel, device, point, start, end = rec
                append(
                    TraceEvent(
                        len(events),
                        ready,
                        "kernel.dispatch",
                        kernel,
                        {
                            "req": rq,
                            "kernel": kernel,
                            "device": device,
                            "point": point,
                            "start_ms": round(start, 6),
                            "end_ms": round(end, 6),
                        },
                    )
                )
            elif tag == 1:
                _, ts, rq, priority = rec
                append(
                    TraceEvent(
                        len(events),
                        ts,
                        "request.admit",
                        f"req-{rq}",
                        {"req": rq, "priority": round(priority, 6)},
                    )
                )
            else:
                _, comp, rq, lat = rec
                append(
                    TraceEvent(
                        len(events),
                        comp,
                        "request.complete",
                        f"req-{rq}",
                        {
                            "req": rq,
                            "latency_ms": round(lat, 6),
                            "retries": 0,
                        },
                    )
                )
        raw.clear()

    @property
    def events(self) -> List[TraceEvent]:
        self._materialize()
        return list(self._events)

    def by_kind(self, kind: str) -> List[TraceEvent]:
        self._materialize()
        return [e for e in self._events if e.kind == kind]

    def clear(self) -> None:
        self._events.clear()
        self._raw.clear()
        self.now_ms = 0.0

    def __len__(self) -> int:
        return len(self._events) + len(self._raw)

    def __repr__(self) -> str:
        self._materialize()
        kinds: Dict[str, int] = {}
        for e in self._events:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        top = ", ".join(f"{k}:{n}" for k, n in sorted(kinds.items())[:4])
        return f"<SpanTracer: {len(self._events)} events ({top})>"
