"""Open-loop request generators.

The motivation study feeds requests at a constant interval swept from
100 ms down to 1 ms (Section II-B); the static evaluation sweeps load
levels from 10% to 100% of a system's saturation throughput (Section
VI-B); the trace study replays a 24-hour utilization trace.  All three
reduce to generating sorted arrival timestamps.  Both simulation
drivers, ``run_simulation`` and ``ClusterSimulation.run``, take those
timestamps, so a single-node and a fleet replay of one stream see the
same floats.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "constant_arrivals",
    "poisson_arrivals",
    "trace_arrivals",
    "pareto_poisson_arrivals",
    "flash_crowd_arrivals",
]


def constant_arrivals(rps: float, duration_ms: float, start_ms: float = 0.0) -> List[float]:
    """Constant-interval arrivals at ``rps`` requests per second."""
    if rps <= 0:
        return []
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    interval = 1000.0 / rps
    n = int(duration_ms / interval)
    return [start_ms + i * interval for i in range(n)]


def poisson_arrivals(
    rps: float,
    duration_ms: float,
    rng: Optional[np.random.Generator] = None,
    start_ms: float = 0.0,
) -> List[float]:
    """Poisson arrivals at mean rate ``rps`` — the open-loop load the
    tail-latency experiments use (queueing needs stochastic arrivals to
    produce realistic p99 behaviour)."""
    if rps <= 0:
        return []
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    rng = rng or np.random.default_rng(0)
    mean_gap = 1000.0 / rps
    # Draw enough gaps to cover the horizon with margin, then trim.
    n_est = max(int(duration_ms / mean_gap * 1.3) + 16, 16)
    end_ms = start_ms + duration_ms
    times: List[float] = []
    t = start_ms
    while True:
        gaps = rng.exponential(mean_gap, size=n_est)
        # np.cumsum accumulates left-to-right, so seeding the chain with
        # ``t`` reproduces the scalar ``t += g`` float sequence exactly;
        # the RNG consumes whole chunks either way, so a seeded stream
        # is bit-identical to the per-gap scalar loop this replaces.
        cum = np.cumsum(np.concatenate(((t,), gaps)))[1:]
        cut = int(np.searchsorted(cum, end_ms, side="left"))
        times.extend(cum[:cut].tolist())
        if cut < n_est:
            return times
        t = float(cum[-1])


def pareto_poisson_arrivals(
    rps: float,
    duration_ms: float,
    rng: Optional[np.random.Generator] = None,
    start_ms: float = 0.0,
    window_ms: float = 1_000.0,
    alpha: float = 2.5,
) -> List[float]:
    """Heavy-tail arrivals: a Pareto-modulated Poisson process.

    Real interactive-service traffic is burstier than Poisson — rates
    cluster into heavy-tailed episodes.  This generator draws one
    Pareto(``alpha``) rate multiplier per ``window_ms`` modulation
    window (normalized so the long-run mean rate stays ``rps``) and
    emits Poisson arrivals at the modulated rate within each window.
    Smaller ``alpha`` means heavier bursts; ``alpha`` must exceed 1 so
    the multiplier's mean exists.
    """
    if rps <= 0:
        return []
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    if window_ms <= 0:
        raise ValueError("modulation window must be positive")
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1 (heavier tails have no mean)")
    rng = rng or np.random.default_rng(0)
    # rng.pareto draws Lomax; +1 gives classical Pareto with x_m = 1 and
    # mean alpha / (alpha - 1); dividing by that mean keeps E[rate] = rps.
    mean_multiplier = alpha / (alpha - 1.0)
    times: List[float] = []
    n_windows = int(math.ceil(duration_ms / window_ms))
    for i in range(n_windows):
        multiplier = (1.0 + float(rng.pareto(alpha))) / mean_multiplier
        w_start = start_ms + i * window_ms
        w_len = min(window_ms, start_ms + duration_ms - w_start)
        rate = rps * multiplier
        if rate <= 0 or w_len <= 0:
            continue
        times.extend(poisson_arrivals(rate, w_len, rng, start_ms=w_start))
    return times


def flash_crowd_arrivals(
    base_rps: float,
    duration_ms: float,
    surge_start_ms: float,
    surge_duration_ms: float,
    surge_multiplier: float = 5.0,
    rng: Optional[np.random.Generator] = None,
    start_ms: float = 0.0,
) -> List[float]:
    """Baseline Poisson load with one flash-crowd surge.

    A surge window multiplies the offered rate by ``surge_multiplier``
    (a news event hitting an interactive service).  Implemented as
    baseline arrivals plus an *extra* Poisson stream at
    ``base_rps * (surge_multiplier - 1)`` inside the surge window,
    merge-sorted: the baseline stream's draws are identical with and
    without the surge, so A/B comparisons under one seed isolate the
    surge's effect.
    """
    if base_rps <= 0:
        return []
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    if surge_duration_ms < 0:
        raise ValueError("surge duration must be non-negative")
    if surge_multiplier < 1.0:
        raise ValueError("a flash crowd cannot shrink the load")
    rng = rng or np.random.default_rng(0)
    base = poisson_arrivals(base_rps, duration_ms, rng, start_ms=start_ms)
    surge_start = max(surge_start_ms, start_ms)
    surge_end = min(surge_start_ms + surge_duration_ms, start_ms + duration_ms)
    extra_rate = base_rps * (surge_multiplier - 1.0)
    if surge_end <= surge_start or extra_rate <= 0:
        return base
    surge = poisson_arrivals(
        extra_rate, surge_end - surge_start, rng, start_ms=surge_start
    )
    return sorted(base + surge)


def trace_arrivals(
    utilization: Sequence[float],
    interval_ms: float,
    peak_rps: float,
    rng: Optional[np.random.Generator] = None,
) -> List[float]:
    """Arrivals following a piecewise utilization trace.

    ``utilization[i]`` in [0, 1] scales ``peak_rps`` over the i-th
    interval of length ``interval_ms`` (the Google-trace replay of
    Section VI-C).
    """
    if interval_ms <= 0 or peak_rps <= 0:
        raise ValueError("interval and peak rate must be positive")
    rng = rng or np.random.default_rng(0)
    times: List[float] = []
    for i, u in enumerate(utilization):
        u = min(max(float(u), 0.0), 1.0)
        rate = u * peak_rps
        if rate <= 0:
            continue
        times.extend(
            poisson_arrivals(rate, interval_ms, rng, start_ms=i * interval_ms)
        )
    return times
