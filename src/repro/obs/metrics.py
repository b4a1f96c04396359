"""Metrics registry: counters, gauges and log-bucket histograms.

A :class:`MetricsRegistry` is a deterministic, dependency-free take on
the Prometheus client model: metrics are identified by a name plus a
sorted label set, snapshots serialize with stable key order, and
:meth:`MetricsRegistry.render_prometheus` emits the text exposition
format so existing dashboards can scrape the artifacts.

Everything a registry holds is a pure function of the events fed into
it — no timestamps are sampled here — so the metrics artifact of a
seeded simulation is byte-identical across runs, the same contract the
tracer keeps (wall-clock *measurements* such as bench-phase timings
belong in the bench document, not in an obs artifact).
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: A metric's identity: (name, ((label, value), ...)) with labels sorted.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def log_buckets(
    lo: float, hi: float, factor: float = 2.0
) -> Tuple[float, ...]:
    """Geometric bucket upper bounds from ``lo`` up to at least ``hi``.

    Log-spaced buckets give constant *relative* resolution — the right
    shape for latencies spanning sub-millisecond FPGA kernels to
    multi-second overload tails.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if factor <= 1.0:
        raise ValueError("factor must be > 1")
    bounds: List[float] = []
    b = lo
    while b < hi:
        bounds.append(b)
        b *= factor
    bounds.append(b)
    return tuple(bounds)


#: Default request-latency buckets: 0.25 ms .. ~16 s, x2 per bucket.
DEFAULT_LATENCY_BUCKETS = log_buckets(0.25, 16_000.0)


class Counter:
    """Monotonically increasing count."""

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go anywhere (occupancy, health, levels)."""

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative log-bucket histogram (Prometheus ``le`` semantics).

    ``counts[i]`` is the number of observations ``<= bounds[i]``; the
    implicit final bucket is ``+Inf``.  ``sum``/``count`` allow mean
    reconstruction; quantiles come from :meth:`quantile` (upper-bound
    estimate: the bucket boundary containing the rank).
    """

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds or any(b <= 0 for b in bounds):
            raise ValueError("histogram needs positive bucket bounds")
        ordered = tuple(sorted(bounds))
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate bucket bounds")
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)  # +Inf bucket last
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError("histogram observations must be finite")
        # First bucket whose bound admits the value; linear scan is fine
        # for the ~20 log buckets this module uses.
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the q-quantile (q in (0, 1])."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.count == 0:
            return float("nan")
        rank = math.ceil(q * self.count)
        seen = 0
        for i, c in enumerate(self.counts[:-1]):
            seen += c
            if seen >= rank:
                return self.bounds[i]
        return float("inf")

    @property
    def value(self) -> Dict[str, Any]:
        cumulative = []
        running = 0
        for c in self.counts[:-1]:
            running += c
            cumulative.append(running)
        return {
            "buckets_le": list(self.bounds),
            "cumulative": cumulative,
            "inf": self.count,
            "sum": self.sum,
            "count": self.count,
        }


def _label_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named, labeled metrics with deterministic serialization.

    ``counter``/``gauge``/``histogram`` create-or-return the child for
    one (name, labels) identity; re-requesting an existing name with a
    different metric type is an error (it would corrupt exposition).
    Thread-safe: every update takes the registry's lock, so threads may
    share one registry.
    """

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Union[Counter, Gauge, Histogram]] = {}
        self._types: Dict[str, str] = {}
        self._lock = threading.Lock()

    # -- child accessors ------------------------------------------------------

    def _child(self, kind: str, name: str, labels: Mapping[str, str], factory):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        key = (name, _label_key(labels))
        with self._lock:
            seen = self._types.get(name)
            if seen is None:
                self._types[name] = kind
            elif seen != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {seen}"
                )
            child = self._metrics.get(key)
            if child is None:
                child = factory()
                self._metrics[key] = child
            return child

    def counter(self, name: str, **labels: str) -> Counter:
        return self._child("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._child("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        use = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BUCKETS
        return self._child("histogram", name, labels, lambda: Histogram(use))

    def value(self, name: str, **labels: str) -> Any:
        """Current value of one metric; KeyError when absent."""
        key = (name, _label_key(labels))
        with self._lock:
            return self._metrics[key].value

    # -- serialization --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic nested dict: ``{name: {label_str: value}}``.

        The unlabeled child serializes under the empty-string label key,
        so every metric family has a uniform shape.
        """
        with self._lock:
            items = sorted(self._metrics.items())
            types = dict(self._types)
        out: Dict[str, Any] = {}
        for (name, labels), metric in items:
            family = out.setdefault(
                name, {"type": types[name], "series": {}}
            )
            label_str = ",".join(f'{k}="{v}"' for k, v in labels)
            family["series"][label_str] = metric.value
        return out

    def to_json(self) -> str:
        """Stable JSON rendering (sorted keys, trailing newline)."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        with self._lock:
            items = sorted(self._metrics.items())
            types = dict(self._types)
        lines: List[str] = []
        seen_names: set = set()
        for (name, labels), metric in items:
            if name not in seen_names:
                seen_names.add(name)
                lines.append(f"# TYPE {name} {types[name]}")
            label_str = ",".join(
                f'{k}="{_escape_label_value(v)}"' for k, v in labels
            )
            if isinstance(metric, Histogram):
                running = 0
                for bound, c in zip(metric.bounds, metric.counts[:-1]):
                    running += c
                    le = _fmt_label_value(bound)
                    sep = "," if label_str else ""
                    lines.append(
                        f'{name}_bucket{{{label_str}{sep}le="{le}"}} {running}'
                    )
                sep = "," if label_str else ""
                lines.append(
                    f'{name}_bucket{{{label_str}{sep}le="+Inf"}} {metric.count}'
                )
                suffix = f"{{{label_str}}}" if label_str else ""
                lines.append(f"{name}_sum{suffix} {_fmt(metric.sum)}")
                lines.append(f"{name}_count{suffix} {metric.count}")
            else:
                suffix = f"{{{label_str}}}" if label_str else ""
                lines.append(f"{name}{suffix} {_fmt(metric.value)}")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"<MetricsRegistry: {len(self._metrics)} series>"


def _fmt(value: float) -> str:
    """Prometheus sample formatting: integers without the trailing .0."""
    if value == int(value) and math.isfinite(value):
        return str(int(value))
    return repr(value)


def _fmt_label_value(bound: float) -> str:
    return _fmt(bound)


def _escape_label_value(value: str) -> str:
    """Exposition-format label escaping: backslash, quote, newline.

    Order matters — backslashes first, or the escapes just added would
    themselves be re-escaped.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )
