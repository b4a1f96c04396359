"""Fixed-window time-series rollups over simulation outcomes.

End-of-run aggregates (one p99, one mean power) hide exactly the
dynamics an interactive serving system is judged on: the overload
minute inside an otherwise healthy hour, the QoS dip while the
autoscaler warms capacity.  This module turns recorded outcomes into
*windowed* rollups — the substrate the SLO layer (:mod:`repro.obs.slo`)
evaluates burn rates over and ``repro simulate --report`` prints.

A :class:`TimeSeriesStore` holds named series of ``(t_ms, value)``
observations on the simulation clock and rolls each into fixed windows
of ``window_ms``.  Per window it reports count/mean/min/max and the
p50/p95/p99 percentiles (numpy ``percentile``, linear interpolation —
deterministic for a given observation set).  Serialization is sorted
and stable, so the rollup artifact of a seeded run is byte-identical
across repeats — the same contract the tracer and metrics registry
keep.

Two feeders map the runtime's outcome objects onto the canonical
series names (:data:`SERIES`):

* :func:`feed_simulation_result` — single-node
  :class:`~repro.runtime.simulation.SimulationResult`: per-completion
  latency and QoS attainment, per-bin node power, and an in-flight
  queue-depth census at window boundaries.
* :func:`feed_cluster_result` — fleet
  :class:`~repro.cluster.simulation.ClusterResult`: the same request
  series plus per-interval fleet power, serving fleet size and
  autoscaler utilization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "SERIES",
    "WindowStats",
    "TimeSeriesStore",
    "feed_simulation_result",
    "feed_cluster_result",
]

#: Canonical series names the feeders emit.  A store accepts any name;
#: these are the ones the SLO layer and the CLI report know about.
SERIES: Tuple[str, ...] = (
    "latency_ms",
    "qos_attained",
    "power_w",
    "queue_depth",
    "fleet_size",
    "utilization",
)


@dataclass(frozen=True)
class WindowStats:
    """Aggregates of one series over one fixed window."""

    series: str
    start_ms: float
    end_ms: float
    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "series": self.series,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "count": self.count,
            "mean": round(self.mean, 6),
            "p50": round(self.p50, 6),
            "p95": round(self.p95, 6),
            "p99": round(self.p99, 6),
            "min": round(self.minimum, 6),
            "max": round(self.maximum, 6),
        }


class TimeSeriesStore:
    """Named series of sim-clock observations with fixed-window rollups.

    Observations are bucketed by ``floor(t_ms / window_ms)`` at
    ``observe`` time; rollups compute lazily per series and are
    invalidated by further observations.  Negative timestamps are
    rejected (the simulation clock starts at zero).
    """

    def __init__(self, window_ms: float = 1000.0) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.window_ms = float(window_ms)
        self._series: Dict[str, Dict[int, List[float]]] = {}
        self._rollups: Dict[str, List[WindowStats]] = {}

    def observe(self, series: str, t_ms: float, value: float) -> None:
        if t_ms < 0:
            raise ValueError("observations precede the simulation clock")
        if not math.isfinite(value):
            raise ValueError("observations must be finite")
        windows = self._series.setdefault(series, {})
        windows.setdefault(int(t_ms // self.window_ms), []).append(
            float(value)
        )
        self._rollups.pop(series, None)

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def rollup(self, series: str) -> List[WindowStats]:
        """Per-window stats for one series, sorted by window start.

        Empty windows between observations are omitted — a gap in the
        rollup *is* the signal (no completions in that window).
        """
        cached = self._rollups.get(series)
        if cached is not None:
            return cached
        windows = self._series.get(series, {})
        out: List[WindowStats] = []
        for idx in sorted(windows):
            values = np.asarray(windows[idx], dtype=float)
            p50, p95, p99 = np.percentile(values, (50.0, 95.0, 99.0))
            out.append(
                WindowStats(
                    series=series,
                    start_ms=idx * self.window_ms,
                    end_ms=(idx + 1) * self.window_ms,
                    count=int(values.size),
                    mean=float(values.mean()),
                    p50=float(p50),
                    p95=float(p95),
                    p99=float(p99),
                    minimum=float(values.min()),
                    maximum=float(values.max()),
                )
            )
        self._rollups[series] = out
        return out

    def window_values(
        self, series: str, start_ms: float, end_ms: float
    ) -> List[float]:
        """Raw observations of ``series`` in ``[start_ms, end_ms)``.

        The span need not align to the rollup grid — the SLO layer
        slides its fast/slow burn windows over raw observations.
        """
        windows = self._series.get(series, {})
        first = int(start_ms // self.window_ms)
        last = int(end_ms // self.window_ms)
        out: List[float] = []
        for idx in range(first, last + 1):
            bucket = windows.get(idx)
            if not bucket:
                continue
            lo = idx * self.window_ms
            if lo >= start_ms and (idx + 1) * self.window_ms <= end_ms:
                out.extend(bucket)
            else:
                # Boundary window: observation order within a bucket is
                # insertion order, but values carry no timestamps — the
                # store keeps buckets whole, so split windows take the
                # whole bucket when its span overlaps the query.
                out.extend(bucket)
        return out

    @property
    def span_ms(self) -> float:
        """End of the last populated window across all series."""
        last = -1
        for windows in self._series.values():
            if windows:
                last = max(last, max(windows))
        return (last + 1) * self.window_ms if last >= 0 else 0.0

    # -- serialization --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic nested dict: series -> window list."""
        return {
            "window_ms": self.window_ms,
            "series": {
                name: [w.to_dict() for w in self.rollup(name)]
                for name in self.series_names()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the rollups.

        One gauge family per statistic, labeled by series and window
        start — scrape-compatible with the registry exposition and
        deterministic (sorted series, ascending windows).
        """
        lines: List[str] = []
        stats = ("count", "mean", "p50", "p95", "p99")
        for stat in stats:
            lines.append(f"# TYPE timeseries_{stat} gauge")
            for name in self.series_names():
                for w in self.rollup(name):
                    value = getattr(w, stat)
                    v = int(value) if stat == "count" else round(value, 6)
                    lines.append(
                        f'timeseries_{stat}{{series="{name}",'
                        f'window_start_ms="{w.start_ms:g}"}} {v}'
                    )
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return sum(
            len(bucket)
            for windows in self._series.values()
            for bucket in windows.values()
        )

    def __repr__(self) -> str:
        return (
            f"<TimeSeriesStore: {len(self._series)} series, "
            f"{len(self)} observations, window {self.window_ms:g} ms>"
        )


def _feed_requests(
    store: TimeSeriesStore, requests, qos_ms: float
) -> None:
    for r in requests:
        if not r.served:
            continue
        store.observe("latency_ms", r.completion_ms, r.latency_ms)
        store.observe(
            "qos_attained",
            r.completion_ms,
            1.0 if r.latency_ms <= qos_ms else 0.0,
        )


def _feed_queue_depth(store: TimeSeriesStore, requests) -> None:
    """In-flight census at each window boundary.

    ``queue_depth`` at boundary ``t`` counts requests with
    ``arrival <= t < completion`` — the backlog + in-service population
    a load balancer would see, computed deterministically from the
    recorded stream (two searchsorted passes over the sorted edges).
    """
    arr = np.sort(
        np.asarray([r.arrival_ms for r in requests], dtype=float)
    )
    comp = np.sort(
        np.asarray(
            [r.completion_ms for r in requests if r.served], dtype=float
        )
    )
    if arr.size == 0:
        return
    w = store.window_ms
    last = float(comp[-1]) if comp.size else float(arr[-1])
    bounds = np.arange(0.0, last + w, w)
    depth = np.searchsorted(arr, bounds, side="right") - np.searchsorted(
        comp, bounds, side="right"
    )
    for t, d in zip(bounds, depth):
        store.observe("queue_depth", float(t), float(d))


def feed_simulation_result(
    store: TimeSeriesStore, result, qos_ms: Optional[float] = None
) -> TimeSeriesStore:
    """Populate ``store`` from a single-node ``SimulationResult``."""
    if qos_ms is None:
        qos_ms = float("inf")
    _feed_requests(store, result.requests, qos_ms)
    _feed_queue_depth(store, result.requests)
    for i, p in enumerate(result.power_bins_w):
        store.observe("power_w", i * result.bin_ms, float(p))
    return store


def feed_cluster_result(
    store: TimeSeriesStore, result
) -> TimeSeriesStore:
    """Populate ``store`` from a fleet ``ClusterResult``."""
    _feed_requests(store, result.requests, result.qos_ms)
    _feed_queue_depth(store, result.requests)
    for i, p in enumerate(result.power_bins_w):
        store.observe("power_w", i * result.interval_ms, float(p))
    for interval in result.intervals:
        store.observe(
            "fleet_size", interval.t_ms, float(interval.n_serving)
        )
        if math.isfinite(interval.utilization):
            store.observe(
                "utilization",
                interval.t_ms,
                float(min(interval.utilization, 1e9)),
            )
    return store
