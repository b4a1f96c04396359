"""Elastic autoscaling: typed scaling-decision API and the policy.

The fleet layer turns per-interval resource demand into *typed*
scaling decisions, modeled on the Ray autoscaler v2 resource scheduler:
a :class:`SchedulingRequest` describes the interval (demand, live
capacity, idle instances), the :class:`Autoscaler` answers with a
:class:`SchedulingReply` carrying :class:`LaunchRequest`s (each with a
deterministic warm-up delay) and :class:`TerminationRequest`s (each
with a :class:`TerminationReason`), bounded by the configured fleet
size and a utilization-score hysteresis band.

The policy is deliberately simple and fully deterministic — a pure
function of the request — so seeded cluster replays are reproducible
and the decision stream can be golden-tested:

* **utilization score** — offered demand over live serving capacity
  (launching nodes count: their capacity is already paid for);
* **scale up** — when the score exceeds the band's upper edge, launch
  enough nodes to bring the score back to ``target_utilization``;
* **scale down** — when the score falls below the band's lower edge,
  terminate nodes that have been idle for ``idle_intervals``
  consecutive evaluations, never below ``min_nodes``;
* **a serving node stays** — no reply, ``MAX_NODES`` shedding included,
  terminates the last serving node (warming nodes serve nothing yet);
* **inside the band** — do nothing (the hysteresis that prevents
  launch/terminate oscillation; :class:`AutoscalerConfig` refuses bands
  that cannot provide it).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Tuple

__all__ = [
    "AutoscalerConfig",
    "TerminationReason",
    "LaunchRequest",
    "TerminationRequest",
    "SchedulingRequest",
    "SchedulingReply",
    "Autoscaler",
]


class TerminationReason(enum.IntEnum):
    """Why an instance is being terminated (Ray-v2-style typed enum)."""

    #: Idle for ``idle_intervals`` evaluations under a low fleet score.
    IDLE_TERMINATE = 1
    #: The fleet exceeds ``max_nodes`` (e.g. after a config change).
    MAX_NODES = 2


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs of the elastic scaling policy.

    Construction refuses a config under which the fleet cannot
    converge, with one :class:`ValueError` naming every violated
    invariant: an empty or unsatisfiable size range, a non-positive or
    non-finite evaluation period, a negative or non-finite warm-up, or a
    hysteresis band without a real gap and the target inside it.
    """

    #: Fleet size bounds (inclusive).
    min_nodes: int = 1
    max_nodes: int = 8
    #: Demand is re-evaluated once per interval of simulated time.
    eval_interval_ms: float = 1_000.0
    #: Hysteresis band on the utilization score: launch above the upper
    #: edge, consider termination below the lower edge, hold inside.
    scale_up_utilization: float = 0.85
    scale_down_utilization: float = 0.30
    #: Post-scaling operating point the launch count aims for; must lie
    #: inside the band or every correction re-triggers the opposite one.
    target_utilization: float = 0.60
    #: A launched node starts serving this long after the decision (VM
    #: boot + bitstream/model load); deterministic, not sampled.
    warmup_ms: float = 2_000.0
    #: Consecutive idle evaluations before a node may be terminated.
    idle_intervals: int = 2
    #: Per-evaluation launch cap (rate-limits thundering-herd scale-up).
    max_launch_per_eval: int = 2

    def __post_init__(self) -> None:
        problems = []
        if self.min_nodes < 1:
            problems.append(
                f"min_nodes={self.min_nodes} allows an empty fleet "
                "(arrivals need a serving node)"
            )
        if self.min_nodes > self.max_nodes:
            problems.append(
                f"min_nodes={self.min_nodes} exceeds max_nodes={self.max_nodes}"
            )
        if not 0 < self.eval_interval_ms < math.inf:
            problems.append(
                f"eval_interval_ms={self.eval_interval_ms:g} must be positive "
                "and finite"
            )
        down = self.scale_down_utilization
        up = self.scale_up_utilization
        if down >= up:
            problems.append(
                f"hysteresis band [{down:g}, {up:g}] has no gap: "
                "scale_down_utilization must be below scale_up_utilization"
            )
        elif not down <= self.target_utilization <= up:
            problems.append(
                f"target_utilization={self.target_utilization:g} lies "
                f"outside the hysteresis band [{down:g}, {up:g}]"
            )
        if not 0 <= self.warmup_ms < math.inf:
            problems.append(
                f"warmup_ms={self.warmup_ms:g} must be non-negative and finite"
            )
        if self.idle_intervals < 1:
            problems.append(f"idle_intervals={self.idle_intervals} must be >= 1")
        if self.max_launch_per_eval < 1:
            problems.append(
                f"max_launch_per_eval={self.max_launch_per_eval} must be >= 1"
            )
        if problems:
            raise ValueError("invalid autoscaler config: " + "; ".join(problems))


@dataclass(frozen=True)
class LaunchRequest:
    """One node launch: decided at ``at_ms``, serving at ``ready_ms``."""

    at_ms: float
    ready_ms: float
    reason: str = "scale_up"


@dataclass(frozen=True)
class TerminationRequest:
    """One node termination, with its typed reason."""

    node_id: str
    reason: TerminationReason


@dataclass(frozen=True)
class SchedulingRequest:
    """One evaluation interval's view of the fleet, as the policy sees
    it.  All fields are plain numbers/ids so the request (and therefore
    the decision) is trivially serializable and comparable."""

    now_ms: float
    #: Offered load over the elapsed interval, requests per second.
    demand_rps: float
    #: Sustained capacity of live (serving + warming) nodes, rps.
    capacity_rps: float
    #: Live node counts.
    n_serving: int
    n_warming: int
    #: Capacity one additional node would add (the next template in the
    #: heterogeneous rotation), rps.
    node_capacity_rps: float
    #: Nodes idle for >= ``idle_intervals`` evaluations, in termination
    #: preference order (most recently launched first).
    idle_nodes: Tuple[str, ...] = ()

    @property
    def n_live(self) -> int:
        return self.n_serving + self.n_warming

    @property
    def utilization(self) -> float:
        """The fleet utilization score driving the hysteresis band."""
        if self.capacity_rps <= 0.0:
            return math.inf if self.demand_rps > 0.0 else 0.0
        return self.demand_rps / self.capacity_rps


@dataclass(frozen=True)
class SchedulingReply:
    """The policy's typed answer for one evaluation interval."""

    to_launch: Tuple[LaunchRequest, ...] = ()
    to_terminate: Tuple[TerminationRequest, ...] = ()
    #: The utilization score the decision was made on (observability).
    utilization: float = 0.0

    @property
    def idle(self) -> bool:
        return not self.to_launch and not self.to_terminate


class Autoscaler:
    """The deterministic scaling policy over :class:`AutoscalerConfig`.

    ``evaluate`` is a pure function of the :class:`SchedulingRequest`:
    it holds no mutable state (idle tracking lives with the fleet
    driver, which owns the node objects), so decisions can be replayed
    and unit-tested in isolation.
    """

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config

    def evaluate(self, request: SchedulingRequest) -> SchedulingReply:
        cfg = self.config
        util = request.utilization
        launches: List[LaunchRequest] = []
        terminations: List[TerminationRequest] = []
        # Warming nodes count toward the fleet's size but serve nothing
        # yet, so neither branch may terminate the last serving node.
        spare = max(request.n_serving - 1, 0)

        # Hard cap first: a fleet above max_nodes sheds idle nodes with
        # the typed MAX_NODES reason regardless of the score.
        over = request.n_live - cfg.max_nodes
        if over > 0:
            for node_id in request.idle_nodes[: min(over, spare)]:
                terminations.append(
                    TerminationRequest(node_id, TerminationReason.MAX_NODES)
                )
            return SchedulingReply((), tuple(terminations), util)

        if util > cfg.scale_up_utilization and request.n_live < cfg.max_nodes:
            want = self._desired_nodes(request)
            n = min(
                max(want - request.n_live, 1),
                cfg.max_nodes - request.n_live,
                cfg.max_launch_per_eval,
            )
            ready = request.now_ms + cfg.warmup_ms
            launches = [
                LaunchRequest(request.now_ms, ready) for _ in range(n)
            ]
        elif util < cfg.scale_down_utilization and request.n_live > cfg.min_nodes:
            want = max(self._desired_nodes(request), cfg.min_nodes)
            excess = max(min(request.n_live - want, spare), 0)
            for node_id in request.idle_nodes[:excess]:
                terminations.append(
                    TerminationRequest(node_id, TerminationReason.IDLE_TERMINATE)
                )
        return SchedulingReply(tuple(launches), tuple(terminations), util)

    def _desired_nodes(self, request: SchedulingRequest) -> int:
        """Fleet size that would put the score at ``target_utilization``,
        assuming average per-node capacity."""
        cfg = self.config
        if request.n_live > 0 and request.capacity_rps > 0.0:
            per_node = request.capacity_rps / request.n_live
        else:
            per_node = request.node_capacity_rps
        if per_node <= 0.0 or cfg.target_utilization <= 0.0:
            return request.n_live
        return int(math.ceil(request.demand_rps / (cfg.target_utilization * per_node)))
