"""Simulation-level metrics wiring and the human-readable digest.

Bridges the runtime's end-of-run state (a
:class:`~repro.runtime.simulation.SimulationResult` plus the
:class:`~repro.runtime.node.LeafNode` that produced it) into the
metrics registry and the trace, without the runtime modules importing
anything heavier than the tracer interface.  Everything recorded here
is a pure function of the simulated run, so metrics artifacts inherit
the tracer's byte-identical determinism.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .metrics import MetricsRegistry
from .tracer import NullTracer

__all__ = [
    "emit_execution_spans",
    "record_simulation_metrics",
    "placement_digest",
]


def emit_execution_spans(tracer: NullTracer, node: Any) -> None:
    """Emit one ``kernel.exec`` span per realized device execution.

    Runs after the last request completes: GPU batch joins mutate the
    end time (and power) of already-reserved executions, so the final
    records — not the dispatch-time reservations — are the truthful
    per-device timeline.  Ordered by (device, start, kernel) for a
    deterministic trace tail.
    """
    if not tracer.enabled:
        return
    records = sorted(
        node.all_records(),
        key=lambda r: (r.device_id, r.start_ms, r.kernel_name, r.point_index),
    )
    for rec in records:
        tracer.emit(
            "kernel.exec",
            name=rec.kernel_name,
            t_ms=rec.start_ms,
            dur_ms=max(rec.end_ms - rec.start_ms, 0.0),
            kernel=rec.kernel_name,
            device=rec.device_id,
            point=rec.point_index,
            power_w=round(rec.power_w, 6),
            batch=rec.batch,
        )


def record_simulation_metrics(
    registry: MetricsRegistry, result: Any, node: Any
) -> None:
    """Fold one finished simulation into the registry.

    Families:

    * ``requests_total{outcome=...}`` — served / shed / failed.
    * ``request_latency_ms`` — log-bucket histogram of steady-state
      served latencies (p99 and the violation ratio over any bound are
      derivable from the cumulative buckets).
    * ``request_retries_total`` / ``request_failovers_total`` — chaos
      accounting (zero in fault-free runs).
    * ``device_busy_ms{device=}`` / ``device_occupancy{device=}`` /
      ``device_executions_total{device=}`` / ``device_health{device=}``
      — per-accelerator utilization and final health (0 healthy,
      1 degraded, 2 failed).
    * ``qos_violations_total`` / ``sim_p99_ms`` — headline QoS signals
      against the app's bound.
    """
    served = shed = failed = 0
    for r in result.requests:
        if r.dropped:
            shed += 1
        elif r.failed:
            failed += 1
        else:
            served += 1
    registry.counter("requests_total", outcome="served").inc(served)
    registry.counter("requests_total", outcome="shed").inc(shed)
    registry.counter("requests_total", outcome="failed").inc(failed)

    lat_hist = registry.histogram("request_latency_ms")
    bound_ms = node.app.qos_ms
    violations = 0
    for lat in result.latencies_ms():
        lat_hist.observe(lat)
        if lat > bound_ms:
            violations += 1
    registry.counter("qos_violations_total").inc(violations)
    registry.gauge("qos_bound_ms").set(bound_ms)
    if lat_hist.count:
        registry.gauge("sim_p99_ms").set(result.p99_ms)

    span = max(result.arrival_span_ms, 1e-9)
    for dev in node.devices:
        labels = {"device": dev.device_id}
        busy = dev.busy_ms_total()
        registry.gauge("device_busy_ms", **labels).set(round(busy, 6))
        registry.gauge("device_occupancy", **labels).set(
            round(min(busy / span, 1.0), 6)
        )
        registry.counter("device_executions_total", **labels).inc(
            len(dev.log) // 6
        )
        registry.gauge("device_health", **labels).set(
            {"healthy": 0, "degraded": 1, "failed": 2}[dev.health.value]
        )

    report = getattr(result, "faults", None)
    retries = report.retries if report is not None else 0
    failovers = report.failovers if report is not None else 0
    registry.counter("request_retries_total").inc(retries)
    registry.counter("request_failovers_total").inc(failovers)
    if report is not None:
        registry.counter("fault_events_applied_total").inc(len(report.applied))
        registry.counter("fault_recoveries_total").inc(len(report.recoveries))


def placement_digest(result: Any, node: Any) -> str:
    """Human-readable placement/occupancy digest (``repro simulate --summary``)."""
    lines: List[str] = [
        f"{result.app} on {result.system}: {len(result.requests)} requests, "
        f"p99 {result.p99_ms:.1f} ms (bound {node.app.qos_ms:.0f} ms), "
        f"violations {result.qos_violations(node.app.qos_ms) * 100:.2f} %"
    ]
    span = max(result.arrival_span_ms, 1e-9)
    for dev in node.devices:
        by_kernel: Dict[str, int] = {}
        for rec in dev.records:
            by_kernel[rec.kernel_name] = by_kernel.get(rec.kernel_name, 0) + 1
        busy = dev.busy_ms_total()
        placed = (
            ", ".join(f"{k}x{n}" for k, n in sorted(by_kernel.items()))
            or "(idle)"
        )
        lines.append(
            f"  {dev.device_id:8s} {dev.device_type.value.upper():4s} "
            f"{min(busy / span, 1.0) * 100:5.1f}% busy  "
            f"[{dev.health.value}]  {placed}"
        )
    return "\n".join(lines)
