"""Request-level simulation driver and power accounting.

``run_simulation`` replays an arrival stream against a leaf node and
produces a :class:`SimulationResult`: per-request latencies plus a
binned power timeline.

Power accounting is post-hoc: every realized execution contributes its
active energy to the bins it overlaps; the remaining (idle) time is
charged at the device's idle power, where Poly systems walk the DVFS
ladder with the bin's utilization and drop fully-idle FPGAs into the
low-power-bitstream state, while static systems idle at full clocks —
the asymmetry behind Fig. 9/12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..apps.base import Application
from ..faults.events import FaultSchedule
from ..faults.injector import FaultInjector, ResilienceReport
from ..optim.design_point import KernelDesignSpace
from .cluster import SchedulingPolicy, SystemConfig
from .engine import EventHeapEngine
from .metrics import availability, tail_latency_p99, violation_ratio
from .node import LeafNode, RequestRecord

__all__ = ["SimulationResult", "run_simulation"]


@dataclass
class SimulationResult:
    """Outcome of one (system, application, arrival-stream) run."""

    system: str
    app: str
    duration_ms: float
    requests: List[RequestRecord]
    power_bins_w: np.ndarray
    bin_ms: float
    warmup_ms: float = 0.0
    faults: Optional[ResilienceReport] = None
    #: The leaf node that produced this result (device records, final
    #: health) — what the obs digest and exporters read post-run.
    node: Optional[LeafNode] = field(default=None, repr=False, compare=False)

    def latencies_ms(self) -> List[float]:
        """Steady-state request latencies (warm-up excluded; shed and
        abandoned requests never produce a service latency)."""
        return [
            r.latency_ms
            for r in self.requests
            if r.arrival_ms >= self.warmup_ms and r.served
        ]

    @property
    def p99_ms(self) -> float:
        return tail_latency_p99(self.latencies_ms())

    @property
    def mean_latency_ms(self) -> float:
        lats = self.latencies_ms()
        if not lats:
            return float("nan")
        return sum(lats) / len(lats)

    @property
    def availability(self) -> float:
        """Fraction of offered requests actually served (all of them in
        a fault-free run; failovers count as served, shed/failed do
        not)."""
        return availability(
            sum(1 for r in self.requests if r.served), len(self.requests)
        )

    def qos_violations(self, bound_ms: float) -> float:
        return violation_ratio(self.latencies_ms(), bound_ms)

    @property
    def avg_power_w(self) -> float:
        """Average node power over the steady-state window."""
        skip = int(self.warmup_ms / self.bin_ms)
        if skip >= len(self.power_bins_w):
            return float("nan")
        return float(np.mean(self.power_bins_w[skip:]))

    @property
    def energy_j(self) -> float:
        return float(np.sum(self.power_bins_w) * self.bin_ms / 1000.0)

    @property
    def arrival_span_ms(self) -> float:
        """The offered-load window the power bins cover."""
        return len(self.power_bins_w) * self.bin_ms

    def __repr__(self) -> str:
        return (
            f"<SimulationResult {self.app} on {self.system}: "
            f"{len(self.requests)} reqs, p99 {self.p99_ms:.1f} ms, "
            f"avg {self.avg_power_w:.0f} W>"
        )


def run_simulation(
    system: SystemConfig,
    app: Application,
    design_spaces: Mapping[Tuple[str, str], KernelDesignSpace],
    arrivals_ms: Sequence[float],
    bin_ms: float = 1000.0,
    warmup_frac: float = 0.1,
    seed: int = 0,
    faults: Optional[FaultSchedule] = None,
    priorities: Optional[Sequence[float]] = None,
    tracer=None,
    metrics=None,
) -> SimulationResult:
    """Replay ``arrivals_ms`` (timestamps, e.g. from
    :mod:`repro.runtime.loadgen`) on a fresh leaf node.

    ``faults`` (a :class:`FaultSchedule`) turns the run into a chaos
    experiment; with ``faults=None`` the run is bit-identical to the
    pre-fault-injection simulator.  ``priorities`` optionally assigns a
    per-request priority in [0, 1] (parallel to the *sorted* arrival
    stream) consulted by graceful-degradation load shedding.

    ``tracer`` (a :class:`repro.obs.SpanTracer`) records the typed
    event stream of the run — request lifecycle, scheduling decisions,
    dispatches, faults — plus one ``kernel.exec`` span per realized
    device execution at the end; ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) receives the run's aggregate
    counters/gauges/histograms.  Both default to off, leaving the run
    bit-identical to an uninstrumented build.

    The run is driven by the simulation engine
    (:class:`repro.runtime.engine.EventHeapEngine`): seeded runs are
    float-identical to a :meth:`LeafNode.submit` loop over the same
    stream, fault-free and under chaos, and traced runs emit the same
    event stream natively from the engine's generated dispatch
    programs.
    """
    if not len(arrivals_ms):
        raise ValueError("empty arrival stream")
    node = LeafNode(system, app, design_spaces, seed=seed, tracer=tracer)
    injector: Optional[FaultInjector] = None
    if faults is not None:
        injector = FaultInjector(faults)
        injector.bind(node)

    ordered = sorted(map(float, arrivals_ms))
    if priorities is not None and len(priorities) != len(ordered):
        raise ValueError("priorities must match the arrival stream length")
    requests = EventHeapEngine(node).run(ordered, priorities=priorities)

    # Latency statistics run to the last completion; power is accounted
    # over the *offered-load* window only — in overload the post-arrival
    # drain is not part of "power at load L" (a saturated system keeps
    # receiving load in reality).  The span comes from the *sorted*
    # stream: the caller's last element need not be its latest arrival.
    arrival_span_ms = max(ordered[-1], bin_ms)
    duration_ms = max(max(r.completion_ms for r in requests), ordered[-1])
    power = _power_timeline(node, arrival_span_ms, bin_ms)
    result = SimulationResult(
        system=system.codename,
        app=app.name,
        duration_ms=duration_ms,
        requests=requests,
        power_bins_w=power,
        bin_ms=bin_ms,
        warmup_ms=arrival_span_ms * warmup_frac,
        faults=injector.report if injector is not None else None,
    )
    if (tracer is not None and tracer.enabled) or metrics is not None:
        # Lazy import: the hot path never touches the obs package.
        from ..obs.summary import emit_execution_spans, record_simulation_metrics

        if tracer is not None and tracer.enabled:
            emit_execution_spans(tracer, node)
        if metrics is not None:
            record_simulation_metrics(metrics, result, node)
    result.node = node
    return result


def _power_timeline(
    node: LeafNode, duration_ms: float, bin_ms: float
) -> np.ndarray:
    """Per-bin average node power (active + policy-dependent idle).

    Vectorized interval arithmetic over each device's execution log:
    every execution contributes its clipped overlap with each covered
    bin via ``np.bincount``, which starts from zeros and adds its
    weights in operand order — emitting the (execution, bin) pairs in
    the same execution-major order the scalar loop visited keeps the
    per-bin float sums bit-identical to the original implementation.
    The DVFS idle-power ladder is applied as a batched ``searchsorted``
    over the ascending levels instead of a per-bin ``pick_level`` call.
    """
    if bin_ms <= 0:
        raise ValueError("bin width must be positive")
    n_bins = max(int(np.ceil(duration_ms / bin_ms)), 1)
    total = np.zeros(n_bins)
    poly = node.system.policy == SchedulingPolicy.POLY

    for dev in node.devices:
        col_starts, col_ends, col_powers = dev.record_columns()
        if not col_starts:
            active_energy = busy = np.zeros(n_bins)
        else:
            starts = np.array(col_starts)
            rec_ends = np.array(col_ends)
            powers = np.array(col_powers)
            first = (starts // bin_ms).astype(np.int64)
            last = np.minimum(
                (rec_ends // bin_ms).astype(np.int64), n_bins - 1
            )
            # Executions entirely past the window have last < first.
            span = np.maximum(last - first + 1, 0)
            rec_idx = np.repeat(np.arange(len(starts)), span)
            offsets = np.arange(int(span.sum())) - np.repeat(
                np.cumsum(span) - span, span
            )
            bins = first[rec_idx] + offsets
            lo = np.maximum(starts[rec_idx], bins * bin_ms)
            hi = np.minimum(rec_ends[rec_idx], (bins + 1) * bin_ms)
            overlap = hi - lo
            m = overlap > 0
            bins = bins[m]
            energy = powers[rec_idx] * overlap
            active_energy = np.bincount(bins, energy[m], n_bins)  # W * ms
            busy = np.bincount(bins, overlap[m], n_bins)

        busy = np.minimum(busy, bin_ms)
        idle = bin_ms - busy
        util = busy / bin_ms
        dvfs = dev.dvfs
        if poly:
            # pick_level: the lowest level whose 80%-derated throughput
            # clears the load, else the highest level.  Over ascending
            # levels that is a searchsorted on level*0.8; fully idle
            # bins drop to the deep-idle state instead.
            asc = np.array(sorted(dvfs.levels))
            idx = np.searchsorted(asc * 0.8, util, side="left")
            level_power = np.array(
                [dvfs.idle_power_w(float(lv)) for lv in asc]
                + [dvfs.idle_power_w(float(dvfs.levels[0]))]
            )
            idle_power = np.where(
                util == 0.0, dvfs.low_power_state_w(), level_power[idx]
            )
        else:
            idle_power = np.full(n_bins, dvfs.idle_power_w(1.0))
        total += (active_energy + idle_power * idle) / bin_ms
    return total
