"""Deterministic trace sampling: bounded artifacts from fleet replays.

A traced fleet replay emits one full span tree per request — admits,
routes, dispatches, completions plus the realized ``kernel.exec``
timeline — which at diurnal-trace scale runs to millions of events and
unusably large Perfetto artifacts.  Sampling keeps the artifacts
bounded while preserving exactly the spans an operator needs:

* **Head-based** — each request is kept with probability
  ``head_rate``, decided by a seeded per-request Bernoulli draw keyed
  on ``(policy seed, request id)``.  The draw never touches the
  simulation's RNG streams (it runs *after* the simulation over the
  recorded event list), so sampled and unsampled runs produce
  float-identical simulation results; and because the key is the
  request id, the decision for request *k* is stable across runs,
  engines and fleet sizes.
* **Tail-based** — complete spans are always retained for the requests
  that matter in a post-mortem: QoS violators (``latency > tail_qos_ms``),
  requests that hit a fault (a ``fault.retry`` or ``request.abandon``
  marker), and the ``tail_top_k`` highest-latency completions.

Control-plane events (``plan.*``, ``sched.*``, ``monitor.*``,
``fault.inject``/``heartbeat_miss``/``failover``/``recover``,
``cluster.launch``/``terminate``/``scale``, ``slo.alert``) are always
kept — they are O(replans + intervals), not O(requests), and carry the
decisions the per-request spans hang off.  Per-request events
(anything carrying a ``req`` argument, including ``cluster.route``)
follow their request's keep/drop decision.  Realized ``kernel.exec``
spans carry no request id; one is kept when a retained request's
``kernel.dispatch`` window on the same device covers it (a shared GPU
batch is retained when *any* participant is sampled).

Events keep their original ``seq`` numbers, so a sampled stream is a
strict subsequence of the full stream and still sorts/merges cleanly.
Drop accounting lands in a :class:`~repro.obs.metrics.MetricsRegistry`:
``sampled_requests_total`` (labeled by decision) and
``dropped_spans_total``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .metrics import MetricsRegistry
from .tracer import TraceEvent

__all__ = [
    "SamplingPolicy",
    "SampledTrace",
    "head_keep",
    "sample_events",
]


@dataclass(frozen=True)
class SamplingPolicy:
    """Declarative head + tail sampling configuration.

    ``head_rate`` is the Bernoulli keep probability (1.0 keeps every
    request and makes sampling the identity); ``seed`` keys the
    per-request draws and is deliberately separate from the simulation
    seed — resampling a recorded run never perturbs it.  The three tail
    criteria are independent and OR-combined; any of them retains the
    complete span regardless of the head draw.
    """

    head_rate: float = 1.0
    seed: int = 0
    tail_qos_ms: Optional[float] = None
    tail_top_k: int = 0
    tail_faults: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.head_rate <= 1.0:
            raise ValueError("head_rate must be in [0, 1]")
        if self.tail_top_k < 0:
            raise ValueError("tail_top_k must be >= 0")
        if self.tail_qos_ms is not None and self.tail_qos_ms <= 0:
            raise ValueError("tail_qos_ms must be positive")


@dataclass(frozen=True)
class SampledTrace:
    """Result of one sampling pass.

    ``events`` is the retained subsequence (original ``seq`` values);
    ``kept_requests`` maps request id -> decision label (``"head"``,
    ``"tail_qos"``, ``"tail_fault"``, ``"tail_topk"``);
    ``dropped_spans`` counts the events removed.
    """

    events: Tuple[TraceEvent, ...]
    kept_requests: Dict[int, str]
    dropped_requests: int
    dropped_spans: int


def head_keep(seed: int, req: int, rate: float) -> bool:
    """The seeded per-request Bernoulli draw.

    Keyed on ``(seed, req)`` through a :class:`numpy.random.SeedSequence`
    (splitmix-style mixing): deterministic across platforms and
    processes, uncorrelated across neighbouring request ids, and
    entirely outside the simulation's RNG streams.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    word = np.random.SeedSequence((seed, req)).generate_state(1)[0]
    return float(word) / 2.0**32 < rate


def _tail_decisions(
    events: List[TraceEvent], policy: SamplingPolicy
) -> Dict[int, str]:
    """Requests the tail criteria force-retain, with their reasons.

    Priority when several criteria match: qos > fault > topk — the
    label records the *strongest* reason, the keep set is the union.
    """
    latency: Dict[int, float] = {}
    faulted: Set[int] = set()
    for ev in events:
        if ev.kind == "request.complete":
            latency[ev.args["req"]] = ev.args["latency_ms"]
        elif ev.kind == "fault.retry" or ev.kind == "request.abandon":
            faulted.add(ev.args["req"])
    decisions: Dict[int, str] = {}
    if policy.tail_top_k > 0 and latency:
        # Deterministic top-k: latency desc, request id asc as the tie
        # break, so equal latencies never make the cut order ambiguous.
        ranked = sorted(latency.items(), key=lambda kv: (-kv[1], kv[0]))
        for req, _ in ranked[: policy.tail_top_k]:
            decisions[req] = "tail_topk"
    if policy.tail_faults:
        for req in faulted:
            decisions[req] = "tail_fault"
    if policy.tail_qos_ms is not None:
        for req, lat in latency.items():
            if lat > policy.tail_qos_ms:
                decisions[req] = "tail_qos"
    return decisions


def sample_events(
    events: List[TraceEvent],
    policy: SamplingPolicy,
    registry: Optional[MetricsRegistry] = None,
) -> SampledTrace:
    """Apply ``policy`` to a recorded event stream.

    Pure post-hoc pass: the input list is not modified and no
    simulation state is touched.  See the module docstring for the
    keep semantics.
    """
    tail = _tail_decisions(events, policy)
    decisions: Dict[int, str] = {}
    # (device, start/end window) of every kept dispatch, for exec match.
    kept_windows: Dict[object, List[Tuple[float, float]]] = {}

    def keep_request(req: int) -> bool:
        dec = decisions.get(req)
        if dec is None:
            if req in tail:
                dec = tail[req]
            elif head_keep(policy.seed, req, policy.head_rate):
                dec = "head"
            else:
                dec = "drop"
            decisions[req] = dec
        return dec != "drop"

    kept: List[TraceEvent] = []
    deferred_exec: List[TraceEvent] = []
    for ev in events:
        req = ev.args.get("req")
        if req is not None:
            if keep_request(req):
                kept.append(ev)
                if ev.kind == "kernel.dispatch":
                    kept_windows.setdefault(ev.args["device"], []).append(
                        (ev.args["start_ms"], ev.args["end_ms"])
                    )
        elif ev.kind == "kernel.exec":
            deferred_exec.append(ev)
        else:
            kept.append(ev)

    # Realized executions: keep those covered by a retained dispatch
    # window on the same device (batch growth can stretch the realized
    # end past the predicted one, so match on start containment).  The
    # windows carry six decimals and the start is raw: rounding the
    # start the same way compares like with like, and since rounding
    # is monotone a start inside a raw window stays inside its rounded
    # one.
    for ev in deferred_exec:
        windows = kept_windows.get(ev.args["device"])
        if windows is None:
            continue
        start = round(ev.ts_ms, 6)
        for w0, w1 in windows:
            if w0 <= start <= w1:
                kept.append(ev)
                break
    kept.sort(key=lambda e: e.seq)

    kept_requests = {r: d for r, d in decisions.items() if d != "drop"}
    dropped_requests = len(decisions) - len(kept_requests)
    dropped_spans = len(events) - len(kept)
    if registry is not None:
        by_label: Dict[str, int] = {}
        for dec in kept_requests.values():
            by_label[dec] = by_label.get(dec, 0) + 1
        for label, n in sorted(by_label.items()):
            registry.counter(
                "sampled_requests_total", decision=label
            ).inc(n)
        if dropped_requests:
            registry.counter(
                "sampled_requests_total", decision="drop"
            ).inc(dropped_requests)
        registry.counter("dropped_spans_total").inc(dropped_spans)
    return SampledTrace(
        events=tuple(kept),
        kept_requests=kept_requests,
        dropped_requests=dropped_requests,
        dropped_spans=dropped_spans,
    )
