"""Evaluation metrics: tail latency, energy proportionality, QoS.

Implements Eq. 1 (energy proportionality) and the derived quantities
used by Figs. 1, 7-10: percentile tail latency, maximum throughput
under a QoS bound, and violation ratios.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "nearest_rank",
    "percentile_latency",
    "tail_latency_p99",
    "violation_ratio",
    "energy_proportionality",
    "ideal_power_curve",
    "max_throughput_under_qos",
    "availability",
    "mean_recovery_ms",
]


def nearest_rank(n: int, percentile: float) -> int:
    """Index of the nearest-rank ``percentile`` in ``n`` sorted values."""
    return max(math.ceil(percentile / 100.0 * n) - 1, 0)


def percentile_latency(latencies_ms: Sequence[float], percentile: float) -> float:
    """Empirical percentile using the nearest-rank method (what tail-
    latency SLOs use in practice)."""
    if not len(latencies_ms):
        raise ValueError("no latencies to summarize")
    if not 0.0 < percentile <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(latencies_ms)
    return ordered[nearest_rank(len(ordered), percentile)]


def tail_latency_p99(latencies_ms: Sequence[float]) -> float:
    """The paper's 99th-percentile tail latency."""
    return percentile_latency(latencies_ms, 99.0)


def violation_ratio(latencies_ms: Sequence[float], bound_ms: float) -> float:
    """Fraction of requests exceeding the latency bound."""
    if not len(latencies_ms):
        raise ValueError("no latencies to summarize")
    if bound_ms <= 0:
        raise ValueError("bound must be positive")
    over = sum(1 for lat in latencies_ms if lat > bound_ms)
    return over / len(latencies_ms)


def ideal_power_curve(loads: Sequence[float], peak_power_w: float) -> np.ndarray:
    """The ideal energy-proportional curve: power linear in load, zero at
    idle (the red dotted line of Fig. 1b)."""
    loads = np.asarray(loads, dtype=float)
    if np.any(loads < 0) or np.any(loads > 1.0 + 1e-9):
        raise ValueError("loads must lie in [0, 1]")
    return loads * peak_power_w


def energy_proportionality(
    loads: Sequence[float], powers_w: Sequence[float]
) -> float:
    """Energy proportionality per Eq. 1.

    ``EP = 1 - (Area_actual - Area_ideal) / Area_ideal`` where the
    areas are under the measured and ideal power-vs-load curves.  The
    ideal curve is linear from zero idle power to the system's measured
    power at full load.  EP = 1 for a perfectly proportional system and
    decreases as idle power grows.
    """
    loads = np.asarray(loads, dtype=float)
    powers = np.asarray(powers_w, dtype=float)
    if loads.shape != powers.shape or loads.size < 2:
        raise ValueError("need matching load/power arrays with >= 2 points")
    order = np.argsort(loads)
    loads, powers = loads[order], powers[order]
    # Anchor the ideal proportional line at the curve's peak power (for
    # a monotone curve this is the full-load power; measured curves can
    # dip near saturation, and the ideal system is still "peak power at
    # peak throughput").
    peak = float(np.max(powers))
    if peak <= 0:
        raise ValueError("peak power must be positive")
    area_actual = float(np.trapezoid(powers, loads))
    area_ideal = float(np.trapezoid(ideal_power_curve(loads, peak), loads))
    if area_ideal <= 0:
        raise ValueError("degenerate load range")
    return 1.0 - (area_actual - area_ideal) / area_ideal


def availability(n_served: int, n_offered: int) -> float:
    """Fraction of offered requests the system actually served — the
    resilience subsystem's headline number (1.0 when nothing was shed
    or abandoned; ``nan`` when nothing was offered)."""
    if n_served < 0 or n_offered < 0:
        raise ValueError("counts must be non-negative")
    if n_served > n_offered:
        raise ValueError("cannot serve more requests than were offered")
    if n_offered == 0:
        return float("nan")
    return n_served / n_offered


def mean_recovery_ms(durations_ms: Sequence[float]) -> float:
    """Mean crash-to-failover recovery time; ``nan`` with no failures
    (a fault-free run has no recovery episodes, not a zero-length
    one).  Zero-duration episodes (detection and replan in the same
    tick) are legal and average to 0.0; negative or non-finite
    durations are rejected — a NaN-poisoned mean would propagate
    silently into availability dashboards."""
    if not len(durations_ms):
        return float("nan")
    if any(not math.isfinite(d) for d in durations_ms):
        raise ValueError("recovery durations must be finite")
    if any(d < 0 for d in durations_ms):
        raise ValueError("recovery durations must be non-negative")
    return sum(durations_ms) / len(durations_ms)


def max_throughput_under_qos(
    rps_levels: Sequence[float],
    p99_ms: Sequence[float],
    bound_ms: float,
) -> float:
    """Largest swept RPS whose p99 meets the bound (Fig. 8's metric).

    Returns 0.0 when even the lowest level violates the bound.
    """
    if len(rps_levels) != len(p99_ms) or not len(rps_levels):
        raise ValueError("need matching, non-empty sweep arrays")
    best = 0.0
    for rps, p99 in sorted(zip(rps_levels, p99_ms)):
        if p99 <= bound_ms:
            best = rps
    return best
