"""Fleet-scale simulation: heterogeneous leaf nodes behind a dispatcher
and an elastic autoscaler.

The paper evaluates Poly on a single leaf node; its framing —
interactive datacenter services under a power cap with TCO as the end
metric — is fleet-scale.  :class:`ClusterSimulation` closes that gap by
simulating a datacenter of :class:`~repro.runtime.node.LeafNode`s:

* nodes are instantiated from a rotation of **templates** (mixed
  architectures in one fleet, à la heterogeneous-cloud deployment
  optimization), each with its own child RNG stream spawned from the
  root seed — node count and launch order never perturb another node's
  noise stream, and single-node seeded runs stay bit-identical to the
  pre-cluster simulator because ``run_simulation`` is untouched;
* a :class:`~repro.cluster.dispatcher.ClusterDispatcher` routes each
  arrival by power-of-two-choices over queue depth, plan
  locality and device health;
* an :class:`~repro.cluster.scaling.Autoscaler` turns per-interval
  demand into typed launch/terminate decisions with deterministic
  warm-up delays;
* the result aggregates fleet latency percentiles, QoS (ASR-target)
  violations, a per-interval fleet power timeline, and TCO /
  cost-efficiency through :meth:`repro.runtime.tco.TCOModel.for_fleet`.

Everything is a pure function of ``(templates, app, arrivals, config,
seed, fault schedules)``: two same-seed runs produce identical latency
percentiles, scaling timelines, and obs event streams.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..apps.base import Application
from ..obs.tracer import NULL_TRACER
from ..optim.design_point import KernelDesignSpace
from ..runtime.cluster import SystemConfig
from ..runtime.engine import EventHeapEngine
from ..runtime.loadgen import trace_arrivals
from ..runtime.metrics import nearest_rank, percentile_latency
from ..runtime.node import LeafNode, RequestRecord
from ..runtime.simulation import _power_timeline
from ..runtime.tco import TCOModel
from ..runtime.trace import UtilizationTrace
from .dispatcher import ClusterDispatcher
from .scaling import (
    Autoscaler,
    AutoscalerConfig,
    LaunchRequest,
    SchedulingRequest,
    TerminationRequest,
)

__all__ = [
    "NodeState",
    "ClusterNode",
    "ScalingEvent",
    "IntervalStats",
    "ClusterResult",
    "ClusterSimulation",
]


_COMPLETION = attrgetter("completion_ms")
_SERVED = attrgetter("served")


class NodeState(enum.Enum):
    """Lifecycle of one fleet node."""

    WARMING = "warming"      # launched, not yet serving (boot + load)
    SERVING = "serving"      # routable
    TERMINATED = "terminated"


@dataclass
class ClusterNode:
    """One leaf node in the fleet, with its cluster-level lifecycle.

    ``horizon_ms`` and ``health`` are the dispatcher's routing inputs,
    kept rather than recomputed per candidate.  They are exact: only
    the node's own requests move its devices (dispatch, and the fault
    clock ``FaultInjector.advance``, which runs at the node's own
    admissions), and :meth:`serve` refreshes both after each one.
    """

    node_id: str
    template: SystemConfig
    leaf: LeafNode
    launched_ms: float
    ready_ms: float
    state: NodeState = NodeState.WARMING
    terminated_ms: Optional[float] = None
    #: Consecutive autoscaler evaluations with an empty queue.
    idle_evals: int = 0
    #: Requests served so far; a node that has served holds warm plans
    #: for the fleet's one application (the plan-locality signal).
    served: int = 0
    #: The node's engine session for the length of the run (a
    #: fault-injected node runs the fault variant of its programs).
    session: Optional[EventHeapEngine] = field(
        default=None, init=False, repr=False
    )
    #: The latest device horizon, as of the last :meth:`refresh`.
    horizon_ms: float = field(init=False)
    #: :attr:`schedulable_fraction`, as of the last :meth:`refresh`.
    health: float = field(init=False)

    def __post_init__(self) -> None:
        self.health = self.schedulable_fraction
        self.refresh()

    def refresh(self) -> None:
        """Re-read the kept routing state from the devices.  Health can
        only move on a fault-injected leaf."""
        leaf = self.leaf
        devices = leaf.devices
        # ``max(map(...))`` keeps the first of equal maxima too, but
        # costs about three times this loop over a handful of devices.
        top = devices[0].horizon_ms
        for device in devices:
            horizon = device.horizon_ms
            if horizon > top:
                top = horizon
        self.horizon_ms = top
        if leaf._injector is not None:
            self.health = self.schedulable_fraction

    def serve(self, t_ms: float) -> None:
        """Admit one routed arrival and refresh the kept routing state."""
        self.session.process(t_ms)
        self.served += 1
        self.refresh()

    def queue_ms(self, now_ms: float) -> float:
        """Bottleneck backlog a new arrival would queue behind.

        The kept latest device horizon minus ``now_ms``, clamped at 0:
        equal to the largest per-device :meth:`backlog_ms`, because
        subtracting a common ``now_ms`` preserves the order of the
        horizons (IEEE subtraction is monotone)."""
        backlog = self.horizon_ms - now_ms
        return backlog if backlog > 0.0 else 0.0

    @property
    def schedulable_fraction(self) -> float:
        """Fraction of the node's accelerators a request can still use
        (driven by ``repro.faults`` states).  Only a fault injector
        moves a device out of HEALTHY, so a leaf without one reads 1.0
        uncounted — the rule the leaf's own live-device views apply."""
        leaf = self.leaf
        devices = leaf.devices
        if not devices:
            return 0.0
        if leaf._injector is None:
            return 1.0
        return sum(1 for d in devices if d.is_schedulable) / len(devices)

    def active_span_ms(self, horizon_ms: float) -> Tuple[float, float]:
        """The [launch, termination) window the node existed in."""
        end = self.terminated_ms if self.terminated_ms is not None else horizon_ms
        return self.launched_ms, min(end, horizon_ms)


@dataclass(frozen=True)
class ScalingEvent:
    """One fleet-size change in the scaling timeline."""

    t_ms: float
    action: str          # "launch" | "terminate"
    node_id: str
    reason: str          # "initial" | "scale_up" | TerminationReason name
    fleet_size: int      # live nodes after the event


@dataclass
class IntervalStats:
    """One autoscaler evaluation interval's fleet aggregates."""

    t_ms: float
    arrivals: int
    demand_rps: float
    utilization: float
    n_serving: int
    n_warming: int
    launched: int
    terminated: int
    #: Latency aggregates of the requests that *arrived* in this
    #: interval; NaN when none did (filled in post-run).
    p50_ms: float = float("nan")
    p99_ms: float = float("nan")
    violations: float = float("nan")


@dataclass
class ClusterResult:
    """Outcome of one fleet replay."""

    app: str
    qos_ms: float
    duration_ms: float
    interval_ms: float
    requests: List[RequestRecord]
    #: Node that served each request (parallel to ``requests``).
    node_ids: List[str]
    intervals: List[IntervalStats]
    timeline: List[ScalingEvent]
    power_bins_w: np.ndarray
    #: Template codename -> time-weighted mean node count.
    fleet_node_months: Dict[str, float]
    scale_up_lags_ms: List[float]
    scale_down_lags_ms: List[float]
    nodes: List[ClusterNode] = field(default_factory=list, repr=False)

    # -- latency --------------------------------------------------------------

    def latencies_ms(self) -> List[float]:
        return [r.latency_ms for r in self.requests if r.served]

    @property
    def p50_ms(self) -> float:
        return percentile_latency(self.latencies_ms(), 50.0)

    @property
    def p99_ms(self) -> float:
        return percentile_latency(self.latencies_ms(), 99.0)

    @property
    def mean_latency_ms(self) -> float:
        lats = self.latencies_ms()
        return sum(lats) / len(lats) if lats else float("nan")

    @property
    def violation_ratio(self) -> float:
        lats = self.latencies_ms()
        if not lats:
            return float("nan")
        return sum(1 for lat in lats if lat > self.qos_ms) / len(lats)

    def qos_ok_frac(self, bound_ms: Optional[float] = None) -> float:
        """Fraction of intervals (with traffic) whose p99 met the ASR
        target — the autoscaler-tracking acceptance metric."""
        bound = self.qos_ms if bound_ms is None else bound_ms
        active = [iv for iv in self.intervals if iv.arrivals > 0]
        if not active:
            return float("nan")
        ok = sum(1 for iv in active if iv.p99_ms <= bound)
        return ok / len(active)

    # -- throughput and fleet shape -------------------------------------------

    @property
    def served_rps(self) -> float:
        n = sum(1 for r in self.requests if r.served)
        return n * 1000.0 / self.duration_ms if self.duration_ms > 0 else 0.0

    @property
    def mean_fleet_size(self) -> float:
        return sum(self.fleet_node_months.values())

    @property
    def launches(self) -> int:
        return sum(1 for e in self.timeline if e.action == "launch")

    @property
    def terminations(self) -> int:
        return sum(1 for e in self.timeline if e.action == "terminate")

    @property
    def scale_up_lag_ms(self) -> float:
        lags = self.scale_up_lags_ms
        return sum(lags) / len(lags) if lags else float("nan")

    @property
    def scale_down_lag_ms(self) -> float:
        lags = self.scale_down_lags_ms
        return sum(lags) / len(lags) if lags else float("nan")

    # -- power and cost -------------------------------------------------------

    @property
    def fleet_avg_power_w(self) -> float:
        return float(np.mean(self.power_bins_w)) if len(self.power_bins_w) else 0.0

    def monthly_tco_usd(self, model: Optional[TCOModel] = None) -> float:
        """Fleet TCO: per-template fixed costs amortized at the
        time-weighted node count, energy at the measured fleet power."""
        model = model or TCOModel()
        by_codename = {n.template.codename: n.template for n in self.nodes}
        fixed = 0.0
        for codename, node_months in sorted(self.fleet_node_months.items()):
            fleet = model.for_fleet(by_codename[codename], node_months)
            fixed += fleet.monthly_fixed_usd()
        return fixed + model.monthly_energy_usd(self.fleet_avg_power_w)

    def cost_efficiency(self, model: Optional[TCOModel] = None) -> float:
        """Fig.-14-style metric at fleet scale: served RPS per monthly
        TCO dollar."""
        return self.served_rps / self.monthly_tco_usd(model)

    def __repr__(self) -> str:
        return (
            f"<ClusterResult {self.app}: {len(self.requests)} reqs on "
            f"{self.mean_fleet_size:.1f} mean nodes, p99 {self.p99_ms:.1f} ms, "
            f"{self.launches} launches / {self.terminations} terminations>"
        )


class ClusterSimulation:
    """Drive a heterogeneous fleet through one arrival stream.

    ``templates`` is the node-architecture rotation (a single
    :class:`SystemConfig` or a sequence — launches cycle through it);
    ``design_spaces`` must cover every template's platforms (explore the
    union of platforms once).  ``fault_schedules`` optionally attaches a
    :class:`~repro.faults.events.FaultSchedule` to named nodes
    (``"node0"`` is the first launched), turning the replay into a
    fleet chaos experiment the dispatcher's health scoring reacts to.
    """

    def __init__(
        self,
        templates: Union[SystemConfig, Sequence[SystemConfig]],
        app: Application,
        design_spaces: Mapping[Tuple[str, str], KernelDesignSpace],
        config: Optional[AutoscalerConfig] = None,
        seed: int = 0,
        tracer=None,
        metrics=None,
        fault_schedules: Optional[Mapping[str, object]] = None,
        trace_nodes: bool = False,
        sampler=None,
    ) -> None:
        if isinstance(templates, SystemConfig):
            templates = [templates]
        if not templates:
            raise ValueError("need at least one node template")
        self.templates = list(templates)
        self.app = app
        self.design_spaces = design_spaces
        self.config = config or AutoscalerConfig()
        self.seed = seed
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        #: Propagate the fleet tracer into every launched leaf, so a
        #: traced replay records the full per-node span trees alongside
        #: the cluster.* decisions (off by default: node spans dominate
        #: trace volume at fleet scale — pair with ``sampler``).
        self.trace_nodes = trace_nodes
        #: Declarative :class:`repro.obs.sampling.SamplingPolicy`
        #: applied post-run by exporters; recorded here so fleet-scale
        #: tracing without a bound policy is lintable (OBS002).
        self.sampler = sampler
        self.autoscaler = Autoscaler(self.config)
        self.dispatcher = ClusterDispatcher(self._child_rng(0, 0), tracer=self.tracer)
        self._fault_schedules = dict(fault_schedules or {})
        self._nodes: List[ClusterNode] = []
        #: The serving and warming subsets of ``_nodes`` (launch order)
        #: and the earliest warming ``ready_ms``, kept current at every
        #: launch, promotion and termination.
        self._serving: List[ClusterNode] = []
        self._warming: List[ClusterNode] = []
        self._next_ready = math.inf
        self._launch_count = 0
        self._timeline: List[ScalingEvent] = []
        self._capacity_cache: Dict[str, float] = {}

    # -- RNG streams ----------------------------------------------------------

    def _child_rng(self, stream: int, index: int) -> np.random.Generator:
        """A child generator spawned from the root seed.

        Streams are keyed, not drawn in launch order: node ``i`` always
        gets the same stream no matter when the autoscaler launched it,
        and the dispatcher/arrival streams never alias a node stream.
        """
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(stream, index))
        )

    def arrival_rng(self) -> np.random.Generator:
        """The arrival-stream child generator (stream 1)."""
        return self._child_rng(1, 0)

    # -- fleet bookkeeping ----------------------------------------------------

    def _template_capacity(self, template: SystemConfig) -> float:
        """Sustained per-node throughput of one template: a healthy
        probe node's plan capacity (a pure model quantity — identical
        across machines, so scaling decisions are machine-independent)."""
        cached = self._capacity_cache.get(template.codename)
        if cached is None:
            probe = LeafNode(template, self.app, self.design_spaces, seed=0)
            probe.maybe_replan(0.0)
            cached = probe.capacity_estimate_rps()
            self._capacity_cache[template.codename] = cached
        return cached

    def _live_count(self) -> int:
        return len(self._serving) + len(self._warming)

    def _refresh_fleet(self) -> None:
        """Recompute the kept serving/warming lists after a state change."""
        self._serving = [n for n in self._nodes if n.state is NodeState.SERVING]
        self._warming = [n for n in self._nodes if n.state is NodeState.WARMING]
        self._next_ready = min((n.ready_ms for n in self._warming), default=math.inf)

    def _promote(self, now_ms: float) -> None:
        """Start serving the warming nodes ready by ``now_ms``; callers
        skip the call while ``now_ms < _next_ready``."""
        for node in self._warming:
            if node.ready_ms <= now_ms:
                node.state = NodeState.SERVING
        self._refresh_fleet()

    def _launch(self, request: LaunchRequest, reason: str = "scale_up") -> ClusterNode:
        index = self._launch_count
        self._launch_count += 1
        template = self.templates[index % len(self.templates)]
        node_id = f"node{index}"
        leaf = LeafNode(
            template,
            self.app,
            self.design_spaces,
            seed=np.random.SeedSequence(
                entropy=self.seed, spawn_key=(2, index)
            ),
            tracer=self.tracer if self.trace_nodes else None,
        )
        schedule = self._fault_schedules.get(node_id)
        if schedule is not None:
            from ..faults.injector import FaultInjector

            FaultInjector(schedule).bind(leaf)
        node = ClusterNode(
            node_id,
            template,
            leaf,
            launched_ms=request.at_ms,
            ready_ms=request.ready_ms,
            state=(
                NodeState.SERVING
                if request.ready_ms <= request.at_ms
                else NodeState.WARMING
            ),
        )
        node.session = EventHeapEngine(leaf)
        self._nodes.append(node)
        self._refresh_fleet()
        self._timeline.append(
            ScalingEvent(
                request.at_ms, "launch", node_id, reason, self._live_count()
            )
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "cluster.launch",
                name=node_id,
                t_ms=request.at_ms,
                node=node_id,
                reason=reason,
                ready_ms=round(request.ready_ms, 6),
            )
        if self.metrics is not None:
            self.metrics.counter("cluster_launches_total").inc()
        return node

    def _terminate(self, request: TerminationRequest, now_ms: float) -> None:
        node = next(
            n for n in self._nodes if n.node_id == request.node_id
        )
        node.state = NodeState.TERMINATED
        node.terminated_ms = now_ms
        self._refresh_fleet()
        self._timeline.append(
            ScalingEvent(
                now_ms,
                "terminate",
                node.node_id,
                request.reason.name,
                self._live_count(),
            )
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "cluster.terminate",
                name=node.node_id,
                t_ms=now_ms,
                node=node.node_id,
                reason=request.reason.name,
            )
        if self.metrics is not None:
            self.metrics.counter("cluster_terminations_total").inc()

    # -- the drive loop -------------------------------------------------------

    def replay(
        self,
        trace: UtilizationTrace,
        peak_rps: float,
        compress: float = 1.0,
    ) -> ClusterResult:
        """Replay a utilization trace (the diurnal Google-trace study at
        fleet scale).  ``compress`` shrinks each trace interval by that
        factor of simulated time; arrivals come from
        :func:`~repro.runtime.loadgen.trace_arrivals` on the dedicated
        arrival child stream, so the replay is seed-deterministic."""
        if compress <= 0:
            raise ValueError("compress must be positive")
        interval_ms = trace.interval_s * 1000.0 / compress
        arrivals = trace_arrivals(
            trace.utilization, interval_ms, peak_rps, self.arrival_rng()
        )
        horizon_ms = len(trace.utilization) * interval_ms
        return self.run(arrivals, horizon_ms=horizon_ms)

    def run(
        self,
        arrivals_ms: Sequence[float],
        horizon_ms: Optional[float] = None,
    ) -> ClusterResult:
        """Route one arrival stream (timestamps) through the fleet.

        The drive loop walks the autoscaler's evaluation grid: the
        arrivals before each evaluation are routed, then the evaluation
        runs, and each node serves its requests through a persistent
        :class:`EventHeapEngine` session.  Seeded replays are pinned by
        the digests in ``tests/golden/fleet_digests.json``.
        """
        if not len(arrivals_ms):
            raise ValueError("empty arrival stream")
        if horizon_ms is not None and not math.isfinite(horizon_ms):
            raise ValueError(f"horizon_ms={horizon_ms:g} must be finite")
        if self._nodes:
            raise RuntimeError("a ClusterSimulation instance drives one run")
        cfg = self.config
        eval_ms = cfg.eval_interval_ms
        ordered = sorted(float(t) for t in arrivals_ms)
        horizon = float(
            max(horizon_ms or 0.0, ordered[-1] + eval_ms, eval_ms)
        )

        for _ in range(cfg.min_nodes):
            self._launch(LaunchRequest(0.0, 0.0), reason="initial")

        intervals: List[IntervalStats] = []
        up_lags: List[float] = []
        down_lags: List[float] = []
        pressure_since: Optional[float] = None
        relief_since: Optional[float] = None
        lag_recorded = False

        def evaluate(now_ms: float, n_arrivals: int) -> None:
            nonlocal pressure_since, relief_since, lag_recorded
            if now_ms >= self._next_ready:
                self._promote(now_ms)
            serving = self._serving
            warming = self._warming
            demand = n_arrivals * 1000.0 / eval_ms
            capacity = sum(
                self._template_capacity(n.template) for n in serving + warming
            )
            for node in serving:
                if node.queue_ms(now_ms) <= 0.0:
                    node.idle_evals += 1
                else:
                    node.idle_evals = 0
            idle = sorted(
                (
                    n
                    for n in serving
                    if n.idle_evals >= cfg.idle_intervals
                ),
                key=lambda n: (-n.launched_ms, n.node_id),
            )
            request = SchedulingRequest(
                now_ms=now_ms,
                demand_rps=demand,
                capacity_rps=capacity,
                n_serving=len(serving),
                n_warming=len(warming),
                node_capacity_rps=self._template_capacity(
                    self.templates[self._launch_count % len(self.templates)]
                ),
                idle_nodes=tuple(n.node_id for n in idle),
            )
            util = request.utilization
            if util > cfg.scale_up_utilization:
                if pressure_since is None:
                    pressure_since = now_ms
                    lag_recorded = False
                relief_since = None
            elif util < cfg.scale_down_utilization:
                if relief_since is None:
                    relief_since = now_ms
                    lag_recorded = False
                pressure_since = None
            else:
                pressure_since = relief_since = None
            reply = self.autoscaler.evaluate(request)
            for launch in reply.to_launch:
                self._launch(launch)
            for termination in reply.to_terminate:
                self._terminate(termination, now_ms)
            if reply.to_launch and pressure_since is not None and not lag_recorded:
                up_lags.append(reply.to_launch[0].ready_ms - pressure_since)
                lag_recorded = True
            if reply.to_terminate and relief_since is not None and not lag_recorded:
                down_lags.append(now_ms - relief_since)
                lag_recorded = True
            if self.tracer.enabled:
                self.tracer.emit(
                    "cluster.scale",
                    name="autoscaler",
                    t_ms=now_ms,
                    n_nodes=self._live_count(),
                    demand_rps=round(demand, 6),
                    utilization=round(min(util, 1e9), 6),
                )
            intervals.append(
                IntervalStats(
                    t_ms=now_ms,
                    arrivals=n_arrivals,
                    demand_rps=demand,
                    utilization=util,
                    n_serving=len(self._serving),
                    n_warming=len(self._warming),
                    launched=len(reply.to_launch),
                    terminated=len(reply.to_terminate),
                )
            )

        req_seq = 0
        # ``next_eval`` is accumulated, never multiplied, so interval
        # timestamps are exact sums.  An evaluation due at ``t`` runs
        # before the arrivals at ``t``.  Launches and terminations
        # happen only at evaluations, so inside a window the serving
        # set only grows, by promotions at known ``ready_ms``: each
        # arrival's serving-set size is known before the window runs,
        # and the window's candidate pairs are drawn in one call.
        arr = np.asarray(ordered, dtype=float)
        #: The node of each request, in route (= arrival) order; the
        #: records are read from the node sessions after the run.
        routed: List[ClusterNode] = []
        route = self.dispatcher.route
        sample_pairs = self.dispatcher.sample_pairs
        i = 0
        next_eval = eval_ms
        while next_eval <= horizon:
            j = int(np.searchsorted(arr, next_eval, side="left"))
            window = ordered[i:j]
            if window:
                sizes = np.full(len(window), len(self._serving))
                if self._next_ready <= window[-1]:
                    ready = sorted(n.ready_ms for n in self._warming)
                    sizes += np.searchsorted(ready, window, side="right")
                for t, pair in zip(window, sample_pairs(sizes)):
                    if t >= self._next_ready:
                        self._promote(t)
                    req_seq += 1
                    node = route(t, self._serving, req_seq, pair)
                    node.serve(t)
                    routed.append(node)
            evaluate(next_eval, j - i)
            i = j
            next_eval += eval_ms

        result = self._assemble(
            routed, arr, intervals, up_lags, down_lags, horizon, eval_ms
        )
        if self.metrics is not None:
            self._record_metrics(result)
        return result

    # -- result assembly ------------------------------------------------------

    def _assemble(
        self,
        routed: List[ClusterNode],
        arrivals: np.ndarray,
        intervals: List[IntervalStats],
        up_lags: List[float],
        down_lags: List[float],
        horizon_ms: float,
        eval_ms: float,
    ) -> ClusterResult:
        # Each session holds its node's records in admission order, so
        # walking the route order with one cursor per node interleaves
        # them into the fleet's request order.  The sessions end here:
        # a result does not keep their columns and programs alive.
        cursors = {}
        for node in self._nodes:
            cursors[node.node_id] = iter(node.session.records()).__next__
            node.session = None
        node_ids = [node.node_id for node in routed]
        records = [cursors[node_id]() for node_id in node_ids]
        self._interval_latencies(intervals, arrivals, records, eval_ms)

        n_bins = max(int(math.ceil(horizon_ms / eval_ms)), 1)
        total_power = np.zeros(n_bins)
        node_months: Dict[str, float] = {}
        edges = np.arange(n_bins) * eval_ms
        for node in self._nodes:
            start, end = node.active_span_ms(horizon_ms)
            if end <= start:
                continue
            bins = _power_timeline(node.leaf, horizon_ms, eval_ms)
            active_frac = np.clip(
                (np.minimum(end, edges + eval_ms) - np.maximum(start, edges))
                / eval_ms,
                0.0,
                1.0,
            )
            total_power += bins[:n_bins] * active_frac
            codename = node.template.codename
            node_months[codename] = node_months.get(codename, 0.0) + float(
                (end - start) / horizon_ms
            )

        return ClusterResult(
            app=self.app.name,
            qos_ms=self.app.qos_ms,
            duration_ms=horizon_ms,
            interval_ms=eval_ms,
            requests=records,
            node_ids=node_ids,
            intervals=intervals,
            timeline=list(self._timeline),
            power_bins_w=total_power,
            fleet_node_months=node_months,
            scale_up_lags_ms=up_lags,
            scale_down_lags_ms=down_lags,
            nodes=list(self._nodes),
        )

    def _interval_latencies(
        self,
        intervals: List[IntervalStats],
        arrivals: np.ndarray,
        records: List[RequestRecord],
        eval_ms: float,
    ) -> None:
        """Fill each interval's p50, p99 and QoS violation share from
        the served requests that arrived in it (``arrival // eval_ms``).

        One sort by (interval, latency) lays out every interval's
        latencies in order; nearest-rank percentiles pick elements of
        it, so they are the floats :func:`percentile_latency` returns.
        """
        n = len(records)
        lat = np.fromiter(map(_COMPLETION, records), float, n) - arrivals
        bucket = np.floor_divide(arrivals, eval_ms)
        if any(node.leaf._injector is not None for node in self._nodes):
            served = np.fromiter(map(_SERVED, records), bool, n)
            lat = lat[served]
            bucket = bucket[served]
            if not len(lat):
                return
        order = np.lexsort((lat, bucket))
        lat = lat[order]
        bucket = bucket[order]
        cuts = np.flatnonzero(bucket[1:] != bucket[:-1]) + 1
        cuts = [0, *cuts.tolist(), len(lat)]
        qos = self.app.qos_ms
        for lo, hi in zip(cuts, cuts[1:]):
            k = int(bucket[lo])
            if not 0 <= k < len(intervals):
                continue
            group = lat[lo:hi]
            size = hi - lo
            interval = intervals[k]
            interval.p50_ms = float(group[nearest_rank(size, 50.0)])
            interval.p99_ms = float(group[nearest_rank(size, 99.0)])
            interval.violations = int(np.count_nonzero(group > qos)) / size

    def _record_metrics(self, result: ClusterResult) -> None:
        registry = self.metrics
        served = sum(1 for r in result.requests if r.served)
        registry.counter("cluster_requests_total", outcome="served").inc(served)
        registry.counter("cluster_requests_total", outcome="other").inc(
            len(result.requests) - served
        )
        registry.gauge("cluster_fleet_size").set(
            len([n for n in result.nodes if n.state is not NodeState.TERMINATED])
        )
        registry.gauge("cluster_mean_fleet_size").set(
            round(result.mean_fleet_size, 6)
        )
        registry.gauge("cluster_fleet_avg_power_w").set(
            round(result.fleet_avg_power_w, 6)
        )
        hist = registry.histogram("cluster_request_latency_ms")
        for lat in result.latencies_ms():
            hist.observe(lat)
