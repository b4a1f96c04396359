"""Runtime-layer lint rules: QoS feasibility, implementation coverage,
and chaos-experiment and fleet sanity.

The graph rules inspect :class:`~repro.scheduler.kernel_graph.KernelGraph`
objects against the DSE product (``ctx.design_spaces``), the QoS bound
(``ctx.qos_ms``) and the device pool (``ctx.devices``); the scheduler
admission check runs them before Step 1 so infeasible requests are
rejected with a diagnostic instead of being scheduled.  Refusing an
empty or cyclic graph is ``KernelGraph.validate``'s job, which
``Application``, the frontend builder and Step 1 run.

RT004 checks a :class:`~repro.faults.events.FaultSchedule` against the
pool: a chaos experiment whose schedule leaves a kernel with zero
eligible devices wastes a full simulation before the problem surfaces.
RT007 warns on autoscaler settings that are legal but suspicious;
settings a run cannot converge under are refused by the
:class:`~repro.cluster.scaling.AutoscalerConfig` constructor."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

import networkx as nx

from ..cluster.scaling import AutoscalerConfig
from ..cluster.simulation import ClusterSimulation
from ..faults.events import FaultSchedule
from ..scheduler.kernel_graph import KernelGraph
from .core import Diagnostic, LintContext, Severity, register_rule

__all__: List[str] = []


def _best_case_latency_ms(
    graph: KernelGraph, ctx: LintContext
) -> Optional[Dict[str, float]]:
    """Per-kernel zero-load lower bound: the fastest implementation on
    any platform, ignoring transfers and queueing.  ``None`` when any
    kernel has no design space (RT003's concern, not RT002's)."""
    assert ctx.design_spaces is not None
    best: Dict[str, float] = {}
    for name in graph.kernel_names:
        lats = [
            space.min_latency().latency_ms
            for (kname, _), space in ctx.design_spaces.items()
            if kname == name
        ]
        if not lats:
            return None
        best[name] = min(lats)
    return best


@register_rule(
    "RT002",
    Severity.ERROR,
    (KernelGraph,),
    "critical-path latency lower bound already exceeds the QoS bound",
)
def check_qos_feasibility(graph: KernelGraph, ctx: LintContext) -> Iterator[Diagnostic]:
    """If the sum of best-case kernel latencies along the critical path
    beats the 200 ms bound with zero queueing and free transfers, no
    schedule can ever meet QoS — reject at admission."""
    if ctx.design_spaces is None or ctx.qos_ms is None:
        return
    if len(graph) == 0 or not nx.is_directed_acyclic_graph(graph.graph):
        return  # a hand-edited graph: no topological order to walk
    best = _best_case_latency_ms(graph, ctx)
    if best is None:
        return  # RT003 already fired
    finish: Dict[str, float] = {}
    for name in nx.topological_sort(graph.graph):
        ready = max((finish[p] for p in graph.predecessors(name)), default=0.0)
        finish[name] = ready + best[name]
    lower_bound = max(finish.values())
    if lower_bound > ctx.qos_ms:
        critical = max(finish, key=lambda n: finish[n])
        yield Diagnostic(
            rule="RT002",
            severity=Severity.ERROR,
            location=ctx.prefix(graph.name),
            message=(
                f"critical-path lower bound {lower_bound:.1f} ms exceeds the "
                f"QoS bound {ctx.qos_ms:.1f} ms even with zero queueing "
                f"(path ends at {critical!r})"
            ),
            hint="raise the QoS bound, shrink the kernels, or add faster platforms",
        )


@register_rule(
    "RT003",
    Severity.ERROR,
    (KernelGraph,),
    "kernel has no implementation covering the device pool",
)
def check_implementation_coverage(
    graph: KernelGraph, ctx: LintContext
) -> Iterator[Diagnostic]:
    """Step 1 raises a bare RuntimeError mid-schedule when a kernel has
    no design space on any pooled device; admission should catch the
    coverage gap up front."""
    if ctx.design_spaces is None:
        return
    covered: Dict[str, Set[str]] = {name: set() for name in graph.kernel_names}
    for (kname, platform) in ctx.design_spaces:
        if kname in covered:
            covered[kname].add(platform)
    pool_platforms = {d.platform for d in ctx.devices}
    pool_families = {d.device_type for d in ctx.devices}
    for name, platforms in covered.items():
        loc = ctx.prefix(f"{graph.name}/{name}")
        if not platforms:
            yield Diagnostic(
                rule="RT003",
                severity=Severity.ERROR,
                location=loc,
                message=f"kernel {name!r} has no design space on any platform",
                hint="run DSE for this kernel before scheduling",
            )
            continue
        if pool_platforms and not (platforms & pool_platforms):
            yield Diagnostic(
                rule="RT003",
                severity=Severity.ERROR,
                location=loc,
                message=(
                    f"kernel {name!r} has implementations only for "
                    f"{sorted(platforms)}, none of which is in the device "
                    f"pool {sorted(pool_platforms)}"
                ),
                hint="explore the kernel on the pooled platforms",
            )
            continue
        if len(pool_families) > 1:
            families = {
                space.device_type
                for (kname, platform), space in ctx.design_spaces.items()
                if kname == name and platform in pool_platforms
            }
            if len(families) == 1:
                only = next(iter(families)).value
                yield Diagnostic(
                    rule="RT003",
                    severity=Severity.INFO,
                    location=loc,
                    message=(
                        f"kernel {name!r} is only implemented on the {only} "
                        "family; the heterogeneous scheduler cannot migrate it"
                    ),
                    hint="add design points for the other family to widen the trade-off",
                )


@register_rule(
    "RT004",
    Severity.ERROR,
    (FaultSchedule,),
    "fault schedule permanently kills every device a kernel can run on",
)
def check_schedule_leaves_survivors(
    schedule: FaultSchedule, ctx: LintContext
) -> Iterator[Diagnostic]:
    """Failover replans over survivors; if a schedule permanently fails
    every pooled device of the only family some kernel is implemented
    on, that kernel has nowhere left to run and every request will
    exhaust its retries.  Such a schedule measures nothing but the
    abandonment path — almost always an experiment-setup mistake."""
    if not ctx.devices or ctx.design_spaces is None:
        return
    dead = {
        d.device_id
        for d in ctx.devices
        if schedule.permanently_failed(d.device_id)
    }
    if not dead:
        return
    # Families with at least one survivor in the pool.
    surviving_families = {
        d.device_type for d in ctx.devices if d.device_id not in dead
    }
    pool_platforms = {d.platform for d in ctx.devices}
    # kernel -> families it can run on within this pool
    families: Dict[str, Set[object]] = {}
    for (kname, platform), space in ctx.design_spaces.items():
        if platform in pool_platforms:
            families.setdefault(kname, set()).add(space.device_type)
    for kname, fams in sorted(families.items()):
        if not (fams & surviving_families):
            needed = sorted(f.value for f in fams)
            yield Diagnostic(
                rule="RT004",
                severity=Severity.ERROR,
                location=ctx.prefix(kname),
                message=(
                    f"schedule permanently fails every pooled device of "
                    f"{needed} — the only famil"
                    f"{'y' if len(needed) == 1 else 'ies'} implementing "
                    f"kernel {kname!r}; failover has no survivor to "
                    "replan onto"
                ),
                hint=(
                    "add a RECOVERY event, spare a device of the family, "
                    "or widen the kernel's implementations"
                ),
            )


@register_rule(
    "RT007",
    Severity.WARNING,
    (AutoscalerConfig,),
    "autoscaler warm-up spans many evaluation intervals",
)
def check_autoscaler_warmup(
    config: AutoscalerConfig, ctx: LintContext
) -> Iterator[Diagnostic]:
    """A launch serves only after ``warmup_ms``; when that spans ten or
    more evaluation intervals, a demand spike shorter than the warm-up
    is over before the capacity it triggered arrives."""
    if config.warmup_ms >= 10.0 * config.eval_interval_ms:
        yield Diagnostic(
            rule="RT007",
            severity=Severity.WARNING,
            location=ctx.prefix("autoscaler"),
            message=(
                f"warmup_ms={config.warmup_ms:g} spans "
                f"{config.warmup_ms / config.eval_interval_ms:.0f} "
                "evaluation intervals; demand spikes shorter than the "
                "warm-up never see the capacity they triggered"
            ),
            hint="lengthen eval_interval_ms or shorten warmup_ms",
        )


#: Fleet size at which an unsampled traced replay stops being a
#: debugging convenience and starts being an artifact-size hazard.
OBS002_FLEET_NODES = 3


@register_rule(
    "OBS002",
    Severity.WARNING,
    (ClusterSimulation,),
    "fleet-scale traced replay without a sampling policy",
)
def check_cluster_sampled(
    sim: ClusterSimulation, ctx: LintContext
) -> Iterator[Diagnostic]:
    """A traced fleet replay emits a full span tree per request; above a
    few nodes the unsampled stream runs to millions of events and the
    Perfetto artifact stops loading.  Bind a
    :class:`~repro.obs.sampling.SamplingPolicy` (head rate plus the
    tail criteria) so exports stay bounded while QoS violators and
    faulted requests keep complete spans."""
    if not sim.tracer.enabled or sim.sampler is not None:
        return
    if sim.config.max_nodes < OBS002_FLEET_NODES:
        return
    detail = (
        "with trace_nodes=True every per-request span lands in the stream"
        if sim.trace_nodes
        else "cluster.route alone adds one event per request"
    )
    yield Diagnostic(
        rule="OBS002",
        severity=Severity.WARNING,
        location=ctx.prefix("cluster_simulation"),
        message=(
            f"traced fleet replay scales to {sim.config.max_nodes} nodes "
            f"with no sampling policy; {detail}"
        ),
        hint=(
            "pass sampler=SamplingPolicy(head_rate=..., tail_qos_ms=...) "
            "to ClusterSimulation (repro cluster --sample-rate does this)"
        ),
    )
