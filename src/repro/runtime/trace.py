"""Datacenter utilization traces (Section VI-C).

The paper replays a 24-hour server-utilization trace from the public
Google cluster data set (May 2011, 12.5k machines) [56].  That data is
not shipped here, so this module provides (a) a synthetic generator
matched to the qualitative shape of Fig. 11 — a diurnal swing with
superimposed bursts and noise — and (b) a loader for the real trace's
per-interval utilization format for users who have it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = ["UtilizationTrace", "synthesize_google_trace", "load_trace_csv"]


@dataclass(frozen=True)
class UtilizationTrace:
    """Per-interval utilization in [0, 1]."""

    utilization: Sequence[float]
    interval_s: float
    name: str = "trace"

    def __post_init__(self) -> None:
        if not len(self.utilization):
            raise ValueError("trace is empty")
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        if any(u < 0.0 or u > 1.0 for u in self.utilization):
            raise ValueError("utilization values must lie in [0, 1]")

    @property
    def mean_utilization(self) -> float:
        return float(np.mean(np.asarray(self.utilization)))

    def resampled(self, factor: int) -> "UtilizationTrace":
        """Keep every ``factor``-th sample (coarser replay)."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        return UtilizationTrace(
            tuple(self.utilization[::factor]),
            self.interval_s * factor,
            f"{self.name}/{factor}x",
        )


def synthesize_google_trace(
    hours: float = 24.0,
    interval_s: float = 300.0,
    seed: int = 2011,
    base: float = 0.35,
    diurnal_amplitude: float = 0.25,
    burst_rate_per_hour: float = 0.7,
    noise_sigma: float = 0.04,
) -> UtilizationTrace:
    """Synthesize a Google-cluster-like 24 h utilization trace.

    Shape ingredients (matching the published cluster analyses and the
    look of Fig. 11): a mean utilization well below saturation, a
    diurnal sine with an afternoon peak, Poisson bursts that jump
    utilization for a few intervals, and Gaussian measurement noise.
    """
    if hours <= 0 or interval_s <= 0:
        raise ValueError("hours and interval must be positive")
    n = int(hours * 3600.0 / interval_s)
    rng = np.random.default_rng(seed)
    t_hours = np.arange(n) * interval_s / 3600.0

    # Diurnal component peaking around 15:00.
    diurnal = base + diurnal_amplitude * np.sin(
        2.0 * math.pi * (t_hours - 9.0) / 24.0
    )

    # Bursts: exponential decay over ~3 intervals.
    bursts = np.zeros(n)
    n_bursts = rng.poisson(burst_rate_per_hour * hours)
    for _ in range(n_bursts):
        at = rng.integers(0, n)
        height = rng.uniform(0.15, 0.4)
        for k in range(at, min(at + 8, n)):
            bursts[k] += height * math.exp(-(k - at) / 3.0)

    noise = rng.normal(0.0, noise_sigma, size=n)
    util = np.clip(diurnal + bursts + noise, 0.02, 1.0)
    return UtilizationTrace(tuple(util.tolist()), interval_s, "google-synthetic")


def load_trace_csv(path: str, column: str = "utilization") -> UtilizationTrace:
    """Load a per-interval utilization CSV (``interval_s`` inferred from
    a ``timestamp`` column if present, else 300 s)."""
    rows: List[dict] = []
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValueError(f"{path!r} contains no rows")
    util = [float(r[column]) for r in rows]
    interval_s = 300.0
    if "timestamp" in rows[0] and len(rows) > 1:
        interval_s = float(rows[1]["timestamp"]) - float(rows[0]["timestamp"])
        if interval_s <= 0:
            raise ValueError("timestamps must be increasing")
    return UtilizationTrace(tuple(util), interval_s, name=path)
