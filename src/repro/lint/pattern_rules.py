"""Pattern-layer lint rules: PPG structure and dataflow legality.

These rules inspect :class:`~repro.patterns.ppg.PPG` graphs (usually
reached through their enclosing :class:`~repro.patterns.ppg.Kernel`):
tensor compatibility along edges, scatter-write hazards, fusion
legality against on-chip capacity, and orphan patterns.  Emptiness and
cycles are not lint's concern: :class:`~repro.patterns.ppg.Kernel`
refuses such a PPG when it is built.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import networkx as nx

from ..hardware.specs import FPGA_SPECS, GPU_SPECS
from ..optim.global_opt import GlobalOptimizer
from ..patterns.annotations import Pattern, PatternKind, Scatter, Tensor
from ..patterns.ppg import PPG
from .core import Diagnostic, LintContext, Severity, register_rule

__all__: List[str] = []


def _edge_loc(ctx: LintContext, ppg: PPG, src: Pattern, dst: Pattern) -> str:
    return ctx.prefix(f"{ppg.name}/{src.name}->{dst.name}")


def _consumed_input(dst: Pattern, produced: Tensor) -> Optional[Tensor]:
    """The dst input tensor matching the producer's output, by name."""
    for t in dst.inputs:
        if t.name == produced.name:
            return t
    return None


@register_rule(
    "PPG001",
    Severity.ERROR,
    (PPG,),
    "PPG edge connects tensors with mismatched shapes",
)
def check_edge_shape(ppg: PPG, ctx: LintContext) -> Iterator[Diagnostic]:
    """A consumer reading the producer's output under a different shape
    indexes out of bounds (or silently truncates) on the device."""
    for edge in ppg.edges:
        produced = edge.src.output
        consumed = _consumed_input(edge.dst, produced)
        if consumed is not None and consumed.shape != produced.shape:
            yield Diagnostic(
                rule="PPG001",
                severity=Severity.ERROR,
                location=_edge_loc(ctx, ppg, edge.src, edge.dst),
                message=(
                    f"shape mismatch on tensor {produced.name!r}: producer "
                    f"writes {produced.shape}, consumer reads {consumed.shape}"
                ),
                hint="make the consumer's input tensor match the producer's output shape",
            )


@register_rule(
    "PPG002",
    Severity.ERROR,
    (PPG,),
    "PPG edge connects tensors with mismatched dtypes",
)
def check_edge_dtype(ppg: PPG, ctx: LintContext) -> Iterator[Diagnostic]:
    """Silent dtype reinterpretation across an edge corrupts data."""
    for edge in ppg.edges:
        produced = edge.src.output
        consumed = _consumed_input(edge.dst, produced)
        if consumed is not None and consumed.dtype != produced.dtype:
            yield Diagnostic(
                rule="PPG002",
                severity=Severity.ERROR,
                location=_edge_loc(ctx, ppg, edge.src, edge.dst),
                message=(
                    f"dtype mismatch on tensor {produced.name!r}: producer "
                    f"writes {produced.dtype}, consumer reads {consumed.dtype}"
                ),
                hint="insert an explicit cast pattern or align the dtypes",
            )


@register_rule(
    "PPG003",
    Severity.INFO,
    (PPG,),
    "PPG edge whose consumer never reads the produced tensor",
)
def check_dangling_dependency(ppg: PPG, ctx: LintContext) -> Iterator[Diagnostic]:
    """An edge the consumer does not actually consume is either a stale
    dependency (over-serializing the schedule) or a missed connection."""
    for edge in ppg.edges:
        produced = edge.src.output
        if _consumed_input(edge.dst, produced) is not None:
            continue
        if any(t.elements == produced.elements for t in edge.dst.inputs):
            continue  # consumed under a renamed tensor of the same extent
        src_names = {t.name for t in edge.src.inputs} | {produced.name}
        if any(t.name in src_names for t in edge.dst.inputs):
            continue  # both operate on a shared stream (in-place idiom)
        yield Diagnostic(
            rule="PPG003",
            severity=Severity.INFO,
            location=_edge_loc(ctx, ppg, edge.src, edge.dst),
            message=(
                f"consumer {edge.dst.name} reads none of producer "
                f"{edge.src.name}'s output ({produced.name!r}, "
                f"{produced.elements} elements)"
            ),
            hint="drop the edge or feed the producer's output into the consumer",
        )


@register_rule(
    "PPG004",
    Severity.WARNING,
    (PPG,),
    "Scatter may write the same output index from multiple elements",
)
def check_scatter_conflict(ppg: PPG, ctx: LintContext) -> Iterator[Diagnostic]:
    """A Scatter whose output index space is smaller than its input
    domain cannot be a bijection: concurrent lanes race on the shared
    output indices unless the combiner is atomic."""
    for pattern in ppg.graph.nodes:
        if not isinstance(pattern, Scatter) or pattern.index_space is None:
            continue
        n_in = pattern.inputs[0].elements
        if pattern.index_space < n_in:
            yield Diagnostic(
                rule="PPG004",
                severity=Severity.WARNING,
                location=ctx.prefix(f"{ppg.name}/{pattern.name}"),
                message=(
                    f"scatter writes {n_in} elements into an index space of "
                    f"{pattern.index_space}: overlapping writes race without "
                    "an atomic combiner"
                ),
                hint="use atomics, privatize the output, or widen index_space",
            )


@register_rule(
    "PPG005",
    Severity.ERROR,
    (PPG,),
    "concurrent Scatters write the same output tensor",
)
def check_scatter_race(ppg: PPG, ctx: LintContext) -> Iterator[Diagnostic]:
    """Two Scatter patterns with no ordering between them (neither
    reaches the other in the PPG) writing the same output tensor is a
    write-write race: the result depends on device execution order."""
    scatters = [p for p in ppg.graph.nodes if p.kind == PatternKind.SCATTER]
    for i, a in enumerate(scatters):
        for b in scatters[i + 1:]:
            if a.output.name != b.output.name:
                continue
            if nx.has_path(ppg.graph, a, b) or nx.has_path(ppg.graph, b, a):
                continue  # ordered by a dependency chain
            yield Diagnostic(
                rule="PPG005",
                severity=Severity.ERROR,
                location=ctx.prefix(f"{ppg.name}/{a.name}&{b.name}"),
                message=(
                    f"unordered scatters {a.name} and {b.name} both write "
                    f"tensor {a.output.name!r} — write-write race"
                ),
                hint="order the scatters with an edge or write disjoint tensors",
            )


@register_rule(
    "PPG006",
    Severity.INFO,
    (PPG,),
    "intermediate tensor too large for any on-chip memory (fusion illegal)",
)
def check_fusion_legality(ppg: PPG, ctx: LintContext) -> Iterator[Diagnostic]:
    """Pre-check of Section IV-B's capacity constraint: an edge whose
    intermediate exceeds every candidate platform's on-chip budget can
    never be fused and will always round-trip through global memory."""
    specs = list(ctx.specs) or ([ctx.spec] if ctx.spec is not None else [])
    if not specs:  # fall back to the largest built-in parts
        specs = list(GPU_SPECS.values()) + list(FPGA_SPECS.values())
    capacity = max(GlobalOptimizer(s).onchip_capacity_bytes for s in specs)
    for edge in ppg.edges:
        if edge.bytes_moved > capacity:
            yield Diagnostic(
                rule="PPG006",
                severity=Severity.INFO,
                location=_edge_loc(ctx, ppg, edge.src, edge.dst),
                message=(
                    f"intermediate of {edge.bytes_moved} bytes exceeds the "
                    f"largest on-chip capacity ({capacity} bytes): fusion of "
                    "this pair is illegal on every platform"
                ),
                hint="tile the producer/consumer pair so the intermediate fits on chip",
            )


@register_rule(
    "PPG007",
    Severity.WARNING,
    (PPG,),
    "orphan pattern disconnected from the rest of the PPG",
)
def check_orphans(ppg: PPG, ctx: LintContext) -> Iterator[Diagnostic]:
    """In a multi-pattern PPG an isolated node usually means a missing
    edge — its results are computed but never consumed."""
    if ppg.graph.number_of_nodes() < 2:
        return
    for pattern in ppg.graph.nodes:
        if ppg.graph.degree(pattern) == 0:
            yield Diagnostic(
                rule="PPG007",
                severity=Severity.WARNING,
                location=ctx.prefix(f"{ppg.name}/{pattern.name}"),
                message=f"pattern {pattern.name} has no incoming or outgoing edges",
                hint="connect it to the dataflow or move it to its own kernel",
            )

