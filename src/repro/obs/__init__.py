"""Observability for the heterogeneous runtime (``repro.obs``).

The paper's Fig. 2 feedback loop assumes an operator can *see* what the
runtime decided — per-kernel placements, device occupancy, how much QoS
slack the energy pass spent — but end-of-run aggregates cannot explain
a scheduler or failover decision after the fact.  This package adds a
first-class tracing/metrics layer:

* :mod:`repro.obs.tracer`  — a sim-clock span tracer with a closed,
  typed event taxonomy over the full request lifecycle (admission,
  Step-1/Step-2 scheduling, dispatch/execute, faults, failover).  The
  default :data:`NULL_TRACER` is inert and every hook guards on
  ``tracer.enabled``, so untraced runs stay bit-identical to the
  pre-observability code.
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  log-bucket histograms with deterministic JSON snapshots and
  Prometheus text exposition.
* :mod:`repro.obs.export`  — Chrome trace-event / Perfetto JSON (per-
  device timeline tracks) and a JSONL structured-event stream.
* :mod:`repro.obs.summary` — simulation-to-registry wiring and the
  placement/occupancy digest behind ``repro simulate --summary``.
* :mod:`repro.obs.sampling` — deterministic head/tail trace sampling
  so fleet replays export bounded artifacts (the per-request Bernoulli
  never touches simulation RNG; QoS violators, faulted requests and
  the top-k latency spans are always retained).
* :mod:`repro.obs.timeseries` — fixed-window rollups (latency
  percentiles, QoS attainment, power, queue depth, fleet size and
  utilization) fed from simulation/cluster outcomes.
* :mod:`repro.obs.slo` — declarative :class:`~repro.obs.slo.SLO`
  objects with multi-window burn-rate alerting over the rollups,
  surfaced by ``repro simulate --out-dir DIR --report``.

Quickstart::

    from repro import apps, runtime
    from repro.obs import MetricsRegistry, SpanTracer, write_perfetto_json

    app = apps.build("ASR")
    system = runtime.setting("I", "Heter-Poly")
    spaces = app.explore(system.platforms)
    tracer, registry = SpanTracer(), MetricsRegistry()
    runtime.run_simulation(
        system, app, spaces, runtime.poisson_arrivals(20, 4_000),
        tracer=tracer, metrics=registry,
    )
    write_perfetto_json(tracer.events, "trace.perfetto.json")

Determinism contract: timestamps are simulation milliseconds (never
wall clock), event order is the emission order of a single-threaded
replay, and all serializers sort keys — so one seed produces
byte-identical artifacts on every run, machine and worker count.
"""

from .export import (
    chrome_trace,
    write_events_jsonl,
    write_metrics_json,
    write_metrics_prom,
    write_perfetto_json,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from .sampling import (
    SampledTrace,
    SamplingPolicy,
    head_keep,
    sample_events,
)
from .slo import (
    SLO,
    AlertEvent,
    default_slos,
    evaluate_slos,
    render_slo_json,
    slo_report,
)
from .summary import (
    emit_execution_spans,
    placement_digest,
    record_simulation_metrics,
)
from .timeseries import (
    SERIES,
    TimeSeriesStore,
    WindowStats,
    feed_cluster_result,
    feed_simulation_result,
)
from .tracer import (
    EVENT_SCHEMA,
    NULL_TRACER,
    NullTracer,
    SpanTracer,
    TraceEvent,
)

__all__ = [
    "EVENT_SCHEMA",
    "TraceEvent",
    "NullTracer",
    "SpanTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "DEFAULT_LATENCY_BUCKETS",
    "chrome_trace",
    "write_perfetto_json",
    "write_events_jsonl",
    "write_metrics_json",
    "write_metrics_prom",
    "emit_execution_spans",
    "record_simulation_metrics",
    "placement_digest",
    "SamplingPolicy",
    "SampledTrace",
    "head_keep",
    "sample_events",
    "SERIES",
    "WindowStats",
    "TimeSeriesStore",
    "feed_simulation_result",
    "feed_cluster_result",
    "SLO",
    "AlertEvent",
    "default_slos",
    "evaluate_slos",
    "slo_report",
    "render_slo_json",
]
