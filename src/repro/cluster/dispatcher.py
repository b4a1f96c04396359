"""Fleet front-end: power-of-two-choices request routing.

The dispatcher is the cluster's admission point: every arriving request
is routed to one serving node.  Full least-loaded scanning is O(fleet)
per request and — the classic balls-into-bins result — barely better
than sampling two nodes and taking the less loaded one, so the router
samples *two* distinct candidates from the serving set and scores each
by

* **queue depth** — the node's bottleneck backlog in ms (what a new
  arrival would wait behind);
* **plan-cache locality** — a node that has already scheduled this
  application's graph signature serves it from its warm operating
  plans; a cold node pays the scheduling passes first, modeled as a
  fixed penalty;
* **node health** — a node with quarantined/degraded accelerators
  (``repro.faults`` :class:`~repro.faults.policy.DeviceHealth`) is
  penalized proportionally to its unhealthy device fraction, and a
  node with *no* schedulable device is never chosen while any
  alternative exists.

Sampling uses a dedicated child RNG stream spawned from the cluster's
root seed, so routing decisions are deterministic under a seed and
independent of the per-node execution-noise streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..obs.tracer import NULL_TRACER

__all__ = ["RouteDecision", "ClusterDispatcher"]


@dataclass(frozen=True)
class RouteDecision:
    """One routing outcome (what the ``cluster.route`` event records)."""

    node_id: str
    candidates: Tuple[str, ...]
    queue_ms: float
    locality: bool
    score: float


class ClusterDispatcher:
    """Power-of-two-choices router over the serving node set."""

    def __init__(
        self,
        rng: np.random.Generator,
        tracer=None,
        locality_penalty_ms: float = 5.0,
        health_penalty_ms: float = 50.0,
    ) -> None:
        if locality_penalty_ms < 0 or health_penalty_ms < 0:
            raise ValueError("routing penalties must be non-negative")
        self._rng = rng
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.locality_penalty_ms = locality_penalty_ms
        self.health_penalty_ms = health_penalty_ms

    # -- scoring --------------------------------------------------------------

    def score(self, node, now_ms: float, signature: str) -> float:
        """Routing score of one candidate (lower is better)."""
        healthy = node.schedulable_fraction
        if healthy <= 0.0:
            return float("inf")
        score = node.queue_ms(now_ms)
        if signature not in node.planned_signatures:
            score += self.locality_penalty_ms
        score += (1.0 - healthy) * self.health_penalty_ms
        return score

    def _sample_two(self, n: int) -> Tuple[int, Optional[int]]:
        """Two distinct indices in [0, n); the classic d=2 sample.

        Drawn as (first, shifted second): ``integers(n)`` then
        ``integers(n - 1)``.  numpy draws nothing for a range of one
        value, so a request consumes no 32-bit draw with one serving
        node, one with two, and two with three or more (plus a rare
        rejection redraw, probability below ``n / 2**32``).  The
        stream's alignment therefore does not depend on the fleet size
        once it is at least three, but does depend on how long the
        fleet sat at one or two nodes.
        """
        i = int(self._rng.integers(n))
        j = int(self._rng.integers(n - 1)) if n > 1 else None
        if j is not None and j >= i:
            j += 1
        return i, j

    def route(
        self,
        now_ms: float,
        signature: str,
        nodes: Sequence,
        req: int = 0,
    ):
        """Pick the serving node for one request.

        ``nodes`` is the routable (serving) subset in a deterministic
        order; returns the chosen node.  Ties break on node id so equal
        scores cannot depend on sampling order.
        """
        if not nodes:
            raise RuntimeError("no serving nodes to route to")
        i, j = self._sample_two(len(nodes))
        first = nodes[i]
        chosen, chosen_score = first, self.score(first, now_ms, signature)
        candidates = [first.node_id]
        if j is not None:
            second = nodes[j]
            candidates.append(second.node_id)
            second_score = self.score(second, now_ms, signature)
            if (second_score, second.node_id) < (chosen_score, chosen.node_id):
                chosen, chosen_score = second, second_score
        if self.tracer.enabled:
            self.tracer.emit(
                "cluster.route",
                name=chosen.node_id,
                t_ms=now_ms,
                req=req,
                node=chosen.node_id,
                candidates=tuple(sorted(candidates)),
                queue_ms=round(chosen.queue_ms(now_ms), 6),
                locality=signature in chosen.planned_signatures,
            )
        return chosen
