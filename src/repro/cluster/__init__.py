"""Fleet-scale simulation above the single-node runtime.

A datacenter of heterogeneous :class:`~repro.runtime.node.LeafNode`s
behind a power-of-two-choices :class:`ClusterDispatcher` and an elastic
:class:`Autoscaler`, driven end-to-end by :class:`ClusterSimulation`.
Deterministic under a seed: per-node child RNG
streams are spawned from one root seed, so fleet runs replay exactly
and single-node seeded runs stay bit-identical to the pre-cluster
simulator.
"""

from .dispatcher import ClusterDispatcher, RouteDecision
from .scaling import (
    Autoscaler,
    AutoscalerConfig,
    LaunchRequest,
    SchedulingReply,
    SchedulingRequest,
    TerminationReason,
    TerminationRequest,
)
from .simulation import (
    ClusterNode,
    ClusterResult,
    ClusterSimulation,
    IntervalStats,
    NodeState,
    ScalingEvent,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ClusterDispatcher",
    "ClusterNode",
    "ClusterResult",
    "ClusterSimulation",
    "IntervalStats",
    "LaunchRequest",
    "NodeState",
    "RouteDecision",
    "ScalingEvent",
    "SchedulingReply",
    "SchedulingRequest",
    "TerminationReason",
    "TerminationRequest",
]
