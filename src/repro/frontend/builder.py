"""Builder: lower parsed annotation ASTs to Kernel / KernelGraph objects.

The output is identical to what the programmatic API in
:mod:`repro.patterns` and :mod:`repro.apps` produces, so frontend-built
kernels flow through DSE, scheduling and simulation unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..patterns import (
    Gather,
    Kernel,
    Map,
    Pack,
    Pattern,
    PatternKind,
    Pipeline,
    PPG,
    Reduce,
    Scan,
    Scatter,
    Stencil,
    Tensor,
    Tiling,
)
from ..scheduler.kernel_graph import KernelGraph
from .ast_nodes import KernelDecl, Module, PatternDecl
from .parser import ParseError, parse

__all__ = ["build_kernel", "build_application_graph", "compile_source"]


def _build_tensor(decl) -> Tensor:
    return Tensor(
        decl.name,
        decl.shape,
        decl.dtype,
        resident=decl.resident,
        stationary=decl.stationary,
    )


def _build_pattern(
    decl: PatternDecl,
    tensors: Dict[str, Tensor],
    built: Dict[str, Pattern],
) -> Pattern:
    """Instantiate one pattern; pattern-name inputs use the producer's
    output tensor (implicit dataflow)."""
    inputs: List[Tensor] = []
    for name in decl.inputs:
        if name in tensors:
            inputs.append(tensors[name])
        elif name in built:
            inputs.append(built[name].output)
        else:  # parser validated; defensive
            raise ParseError(f"unknown input {name!r}", decl.line)
    if not inputs:
        raise ParseError(f"pattern {decl.name!r} needs at least one input", decl.line)

    kind = PatternKind.from_name(decl.kind)
    attrs = dict(decl.attrs)
    common = {
        "func": str(attrs.pop("func", "identity")),
        "ops_per_element": float(attrs.pop("ops", 1.0)),
    }
    inputs_t = tuple(inputs)

    if kind == PatternKind.MAP:
        return Map(inputs_t, **common)
    if kind == PatternKind.REDUCE:
        return Reduce(inputs_t, **common)
    if kind == PatternKind.SCAN:
        return Scan(inputs_t, **common)
    if kind == PatternKind.STENCIL:
        neigh = attrs.pop("neighborhood", None)
        if neigh is not None:
            if isinstance(neigh, tuple) and neigh and isinstance(neigh[0], int):
                neighborhood = tuple((int(n),) for n in neigh)
            else:
                neighborhood = tuple(neigh)
        else:
            neighborhood = ((0,),)
        return Stencil(inputs_t, neighborhood=neighborhood, **common)
    if kind == PatternKind.PIPELINE:
        stages = attrs.pop("stages", ("stage0",))
        if isinstance(stages, str):
            stages = (stages,)
        iterations = int(attrs.pop("iterations", 1))
        return Pipeline(
            inputs_t,
            stages=tuple(stages),
            ops_per_stage=common["ops_per_element"],
            iterations=iterations,
        )
    if kind == PatternKind.GATHER:
        index_space = attrs.pop("index_space", None)
        return Gather(
            inputs_t,
            index_space=int(index_space) if index_space else None,
            **common,
        )
    if kind == PatternKind.SCATTER:
        index_space = attrs.pop("index_space", None)
        return Scatter(
            inputs_t,
            index_space=int(index_space) if index_space else None,
            **common,
        )
    if kind == PatternKind.TILING:
        tile = attrs.pop("tile", (1,))
        grid = attrs.pop("grid", (1,))
        return Tiling(inputs_t, tile=tuple(tile), grid=tuple(grid), **common)
    if kind == PatternKind.PACK:
        return Pack(inputs_t, **common)
    raise ParseError(f"unsupported pattern kind {decl.kind!r}", decl.line)


def build_kernel(decl: KernelDecl) -> Kernel:
    """Lower one kernel declaration to a :class:`Kernel`.

    The :class:`Kernel` constructor refuses an empty or cyclic PPG;
    dataflow smells (shape/dtype mismatches, scatter races) are
    :func:`repro.lint.run_lint`'s to report.
    """
    tensors = {t.name: _build_tensor(t) for t in decl.tensors}
    ppg = PPG(decl.name)
    built: Dict[str, Pattern] = {}
    for pdecl in decl.patterns:
        pattern = _build_pattern(pdecl, tensors, built)
        built[pdecl.name] = pattern
        ppg.add_pattern(pattern)
        # Implicit edges: pattern-name inputs connect producer->consumer.
        for name in pdecl.inputs:
            if name in built and name != pdecl.name:
                producer = built[name]
                if producer is not pattern and not ppg.graph.has_edge(
                    producer, pattern
                ):
                    ppg.connect(producer, pattern)
    for dep in decl.deps:
        for src, dst in zip(dep.chain, dep.chain[1:]):
            if not ppg.graph.has_edge(built[src], built[dst]):
                ppg.connect(built[src], built[dst])
    return Kernel(decl.name, ppg)


def build_application_graph(
    module: Module, app_name: str
) -> Tuple[KernelGraph, float]:
    """Lower one app block to a :class:`KernelGraph` plus its QoS bound."""
    if app_name not in module.apps:
        raise KeyError(f"module defines no app {app_name!r}")
    app = module.apps[app_name]
    graph = KernelGraph(app.name)
    for kname in app.kernels:
        if kname not in module.kernels:
            raise ParseError(f"app uses unknown kernel {kname!r}", app.line)
        graph.add_kernel(build_kernel(module.kernels[kname]))
    for edge in app.edges:
        graph.connect(edge.src, edge.dst, edge.nbytes)
    graph.validate()
    return graph, app.qos_ms


def compile_source(source: str):
    """One-shot convenience: parse and build everything in the source.

    Returns ``(kernels, graphs)``: all standalone kernels by name, and
    ``{app_name: (KernelGraph, qos_ms)}``.
    """
    module = parse(source)
    kernels = {name: build_kernel(decl) for name, decl in module.kernels.items()}
    graphs = {name: build_application_graph(module, name) for name in module.apps}
    return kernels, graphs
