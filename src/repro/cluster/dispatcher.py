"""Fleet front-end: power-of-two-choices request routing.

The dispatcher is the cluster's admission point: every arriving request
is routed to one serving node.  Full least-loaded scanning is O(fleet)
per request and — the classic balls-into-bins result — barely better
than sampling two nodes and taking the less loaded one, so the router
samples *two* distinct candidates from the serving set and scores each
by

* **queue depth** — the node's bottleneck backlog in ms (what a new
  arrival would wait behind): its kept latest device horizon
  (:attr:`~repro.cluster.simulation.ClusterNode.horizon_ms`) minus the
  arrival time, clamped at 0;
* **plan locality** — a node that has served before holds warm
  operating plans for the fleet's one application; a cold node pays
  the scheduling passes first, modeled as a fixed penalty
  (:data:`LOCALITY_PENALTY_MS`);
* **node health** — a node with quarantined/degraded accelerators
  (``repro.faults`` :class:`~repro.faults.policy.DeviceHealth`) is
  penalized proportionally to its unhealthy device fraction, the kept
  :attr:`~repro.cluster.simulation.ClusterNode.health`, up to
  :data:`HEALTH_PENALTY_MS`.  Only a
  fault-injected node can have such devices: without an injector a
  leaf's devices never leave HEALTHY, so its fraction is 1.0 and adds
  nothing.  A node with *no* schedulable device scores infinity and is
  never chosen while a node with one serves: when both sampled
  candidates score infinity, the router falls back to the best-scoring
  node of the whole serving set (no extra draw, so the stream stays
  aligned).

Sampling uses a dedicated child RNG stream spawned from the cluster's
root seed, so routing decisions are deterministic under a seed and
independent of the per-node execution-noise streams.  A sample is
``integers(n)`` then a shifted ``integers(n - 1)``; numpy draws nothing
for a one-value range, so a request consumes no 32-bit draw with one
serving node, one with two, and two with three or more.
:meth:`ClusterDispatcher.sample_pairs` draws the pairs of many requests
in one ``Generator.integers`` call over per-request highs ``n`` and
``max(n - 1, 1)``.  That call walks the highs in order through the same
bounded 32-bit draw as the scalar call, and a one-value range draws
nothing there either, so the batch leaves the same pairs and the same
generator state as the per-request loop.  The fleet replay draws each
evaluation window's pairs at once from the serving-set size each
arrival will see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracer import NULL_TRACER

__all__ = ["RouteDecision", "ClusterDispatcher"]

_INF = float("inf")

#: Score added to a node that has not served yet (cold plans).
LOCALITY_PENALTY_MS = 5.0
#: Score added to a node with no healthy device; a partly unhealthy
#: node pays its unhealthy fraction of it.
HEALTH_PENALTY_MS = 50.0


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

    def __init__(self, rng: np.random.Generator, tracer=None) -> None:
        self._rng = rng
        self.tracer = NULL_TRACER if tracer is None else tracer

    # -- scoring --------------------------------------------------------------

    def score(self, node, now_ms: float) -> float:
        """Routing score of one candidate (lower is better), from the
        node's kept ``horizon_ms``, ``served`` and ``health``."""
        health = node.health
        if health <= 0.0:
            return _INF
        # ``node.queue_ms(now_ms)``, inlined: two scores per arrival.
        queue = node.horizon_ms - now_ms
        score = queue if queue > 0.0 else 0.0
        if not node.served:
            score += LOCALITY_PENALTY_MS
        if health < 1.0:
            score += (1.0 - health) * HEALTH_PENALTY_MS
        return score

    def sample_pairs(
        self, sizes: Sequence[int]
    ) -> List[Tuple[int, Optional[int]]]:
        """Candidate pairs for requests meeting serving sets of ``sizes``.

        Pair ``k`` holds two distinct indices in ``[0, sizes[k])``, the
        second ``None`` when ``sizes[k]`` is 1.  One ``integers`` call
        over highs ``n, max(n - 1, 1)`` per request draws exactly what
        the scalar ``integers(n)``/``integers(n - 1)`` loop would, in
        the same order (see the module docstring).
        """
        n = np.asarray(sizes, dtype=np.int64)
        if n.size == 0:
            return []
        smallest = int(n.min())
        if smallest < 1:
            raise RuntimeError("no serving nodes to route to")
        highs = np.empty(2 * n.size, dtype=np.int64)
        highs[0::2] = n
        np.maximum(n - 1, 1, out=highs[1::2])
        draws = self._rng.integers(0, highs)
        first = draws[0::2]
        second = draws[1::2]
        second += second >= first
        if smallest > 1:
            return list(zip(first.tolist(), second.tolist()))
        return [
            (i, j if size > 1 else None)
            for i, j, size in zip(first.tolist(), second.tolist(), n.tolist())
        ]

    def route(
        self,
        now_ms: float,
        nodes: Sequence,
        req: int = 0,
        pair: Optional[Tuple[int, Optional[int]]] = None,
    ):
        """Pick the serving node for one request.

        ``nodes`` is the routable (serving) subset in a deterministic
        order; returns the chosen node.  ``pair`` is a candidate pair
        drawn ahead by :meth:`sample_pairs` for ``len(nodes)``; without
        one, the pair is drawn here.  Ties break on node id so equal
        scores cannot depend on sampling order.  When both candidates
        score infinity and some node of ``nodes`` scores finite, the
        lowest ``(score, node_id)`` of ``nodes`` is chosen instead.
        """
        if not nodes:
            raise RuntimeError("no serving nodes to route to")
        if pair is None:
            [pair] = self.sample_pairs((len(nodes),))
        i, j = pair
        score = self.score
        first = nodes[i]
        chosen, chosen_score = first, score(first, now_ms)
        second = None
        if j is not None:
            second = nodes[j]
            second_score = score(second, now_ms)
            if second_score < chosen_score or (
                second_score == chosen_score and second.node_id < chosen.node_id
            ):
                chosen, chosen_score = second, second_score
        fallback = None
        if chosen_score == _INF and len(nodes) > 2:
            best_score, _, best = min(
                (score(node, now_ms), node.node_id, k)
                for k, node in enumerate(nodes)
            )
            if best_score < _INF:
                chosen = fallback = nodes[best]
        if self.tracer.enabled:
            candidates = [
                n.node_id for n in (first, second, fallback) if n is not None
            ]
            self.tracer.emit(
                "cluster.route",
                name=chosen.node_id,
                t_ms=now_ms,
                req=req,
                node=chosen.node_id,
                candidates=tuple(sorted(candidates)),
                queue_ms=round(chosen.queue_ms(now_ms), 6),
                locality=chosen.served > 0,
            )
        return chosen
