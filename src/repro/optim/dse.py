"""Model-driven design space exploration (Section IV-C).

Exhaustive evaluation of every knob combination would take "tens of
hours" with real toolchains; the paper instead navigates with the
analytical models, reducing exploration to seconds.  We do the same:
enumerate the pruned local space crossed with the global options,
evaluate every combination with the GPU/FPGA analytical model, drop
infeasible FPGA points, and optionally subsample to a target size (the
per-kernel design counts of Table II).

Each (kernel, platform) pair's configs are evaluated in one vectorized
model call (:mod:`repro.hardware.model_cache`); no estimate is kept
across explorations, so re-exploring a kernel evaluates it again.  Each
config and each design point is built once: configs positionally from
the candidate tuples, points in their final (latency, power) order with
their final index.
"""

from __future__ import annotations

import dataclasses
import itertools
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware import ImplConfig
from ..hardware.config import FIELD_DTYPES
from ..hardware.model_cache import model_cache
from ..hardware.specs import DeviceType
from ..patterns.analysis import analyze_kernel
from ..patterns.ppg import Kernel
from .design_point import DesignPoint, KernelDesignSpace
from .global_opt import GlobalOptimizer
from .local_opt import LocalOptimizer

__all__ = [
    "KnobSpace",
    "explore_kernel",
    "explore_application",
    "enumerate_configs",
]


#: ``ImplConfig``'s field defaults: the value of a knob no plan varies.
_DEFAULTS: Dict[str, Any] = {f.name: f.default for f in dataclasses.fields(ImplConfig)}


class KnobSpace:
    """The pruned knob space of one (kernel, platform) pair, numbered.

    The kernel is analyzed once, and both passes read that analysis:
    the local pass supplies per-knob candidates and forced values; the
    global pass decides whether a fused variant is worth exploring
    (doubling the space when it is).  ``overrides`` replaces the
    candidate list of knobs already present in the plan (names the
    local pass pruned away or never enabled are ignored) — the hook the
    benchmark uses to synthetically enlarge the space.

    Config ``i`` is the ``i``-th of ``itertools.product`` over the
    candidate tuples of the sorted knob names with the fusion option
    innermost: a mixed-radix number whose digits index the candidate
    tuples.  Those digits are the *genes*: ``genes`` names them (the
    sorted knob names, then ``fused``), ``alleles[k]`` is gene ``k``'s
    candidate tuple and ``strides[k]`` its place value, so config ``i``
    takes ``alleles[k][i // strides[k] % len(alleles[k])]``.  The space
    hands out one knob's values over an index array as a numpy column,
    one :class:`ImplConfig`, or the full list, so a search can screen
    all of it as columns and build configs only for the points it
    evaluates.  Configs are built positionally from the candidate
    tuples' own values.

    Every ``ImplConfig.__post_init__`` check reads a single field, so
    checking each candidate value once here raises exactly when
    building some config of the space would.
    """

    def __init__(
        self, kernel: Kernel, spec, overrides: Optional[Dict[str, Sequence]] = None
    ) -> None:
        analysis = analyze_kernel(kernel)
        local = LocalOptimizer(spec.device_type).plan(analysis)
        candidates: Dict[str, Tuple] = dict(local.candidates)
        if overrides:
            for name, values in overrides.items():
                if name in candidates:
                    candidates[name] = tuple(values)
        self.names: Tuple[str, ...] = tuple(sorted(candidates))
        self.values: Tuple[Tuple, ...] = tuple([candidates[n] for n in self.names])
        self.forced: Dict[str, Any] = dict(local.forced)
        worthwhile = GlobalOptimizer(spec).plan(analysis).worthwhile
        self.fused_options: Tuple[bool, ...] = (False, True) if worthwhile else (False,)
        # The digits of a config number, most significant first.
        self.genes: Tuple[str, ...] = self.names + ("fused",)
        self.alleles: Tuple[Tuple, ...] = self.values + (self.fused_options,)
        strides = [1]
        for values in reversed(self.alleles[1:]):
            strides.append(strides[-1] * len(values))
        self.strides: Tuple[int, ...] = tuple(reversed(strides))
        self.size = self.strides[0] * len(self.alleles[0])
        # A config's fields in declaration order, picked from its gene
        # values followed by the values no gene varies.
        fixed = [f for f in _DEFAULTS if f not in self.genes or f in self.forced]
        self._fixed = tuple([self.forced.get(f, _DEFAULTS[f]) for f in fixed])
        self._fields = itemgetter(
            *(
                len(self.genes) + fixed.index(f) if f in fixed else self.genes.index(f)
                for f in _DEFAULTS
            )
        )
        if self.size:
            for name, values in zip(self.names, self.values):
                if name not in self.forced:
                    for value in values:
                        ImplConfig(**{name: value})
            ImplConfig(**self.forced)

    def __len__(self) -> int:
        return self.size

    def column(self, name: str, index: np.ndarray) -> np.ndarray:
        """Field ``name`` of the configs at ``index``, as a numpy column
        of the field's :data:`~repro.hardware.config.FIELD_DTYPES` type."""
        dtype = FIELD_DTYPES[name]
        if name in self.forced:
            return np.full(len(index), self.forced[name], dtype)
        if name not in self.genes:
            return np.full(len(index), _DEFAULTS[name], dtype)
        k = self.genes.index(name)
        values, stride = self.alleles[k], self.strides[k]
        return np.asarray(values, dtype)[index // stride % len(values)]

    def config(self, i: int) -> ImplConfig:
        """Config ``i`` of the enumeration order."""
        i = int(i)
        if not 0 <= i < self.size:
            raise IndexError(f"config {i} outside a space of {self.size}")
        # Tuples here are built from sized sequences: ``tuple(<generator>)``
        # allocates ten slots and shrinks them, so each call would park
        # one more tuple on CPython's free list for the shrunk size.
        genes = [
            values[i // stride % len(values)]
            for values, stride in zip(self.alleles, self.strides)
        ]
        return ImplConfig(*self._fields((*genes, *self._fixed)))

    def configs(self) -> List[ImplConfig]:
        """Every config, in enumeration order."""
        fields, fixed = self._fields, self._fixed
        return [
            ImplConfig(*fields(genes + fixed))
            for genes in itertools.product(*self.alleles)
        ]


def enumerate_configs(
    kernel: Kernel, spec, overrides: Optional[Dict[str, Sequence]] = None
) -> List[ImplConfig]:
    """Enumerate candidate implementations after local+global pruning:
    every config of the :class:`KnobSpace`, in its order."""
    return KnobSpace(kernel, spec, overrides).configs()


def _design_points(
    kernel: Kernel,
    spec,
    configs: Sequence[ImplConfig],
    latency: Sequence[float],
    power: Sequence[float],
) -> List[DesignPoint]:
    """The rows as design points in :class:`KernelDesignSpace` order:
    by (latency, power), ties in row order (a stable lexsort), each
    point built once with its index in that order."""
    order = np.lexsort((power, latency)).tolist()
    return [
        DesignPoint(
            kernel.name, spec.name, spec.device_type,
            configs[i], latency[i], power[i], index,
        )
        for index, i in enumerate(order)
    ]


def _evaluate(
    kernel: Kernel, spec, configs: Sequence[ImplConfig]
) -> List[DesignPoint]:
    """Run the analytical model over the candidates in one vectorized
    call, drop infeasible FPGA points (designs that do not place on
    the part) and return the rest as indexed design points in
    (latency, power) order."""
    feasible, latency, power = model_cache.evaluate_many(kernel, spec, configs)
    if not all(feasible):
        keep = [i for i, ok in enumerate(feasible) if ok]
        configs = [configs[i] for i in keep]
        latency = [latency[i] for i in keep]
        power = [power[i] for i in keep]
    return _design_points(kernel, spec, configs, latency, power)


def _point_order_key(point: DesignPoint) -> Tuple:
    """Total order on design points: objectives, then the full knob tuple.

    (latency, power) alone is not a total order — distinct configs can
    model identically — so sorting by it leaves tie order at the mercy
    of the input ordering.  Appending the config fields makes subsample
    selection a pure function of the point *set*, independent of
    enumeration order.
    """
    return (point.latency_ms, point.power_w) + point.config.astuple()


def _subsample(points: List[DesignPoint], target: int) -> List[DesignPoint]:
    """Deterministically thin a design space to ``target`` points.

    Keeps the Pareto-relevant extremes by sampling evenly across the
    latency-sorted list — the paper's spaces (Table II) are similarly
    curated subsets of the raw combinatorial space.  A target of 1
    keeps the first point of the total order (the lowest latency).
    """
    if len(points) <= target:
        return points
    ordered = sorted(points, key=_point_order_key)
    step = (len(ordered) - 1) / (target - 1) if target > 1 else 0.0
    # With more points than the target the step exceeds 1, so the
    # rounded positions strictly increase and no point is picked twice.
    return [ordered[round(i * step)] for i in range(target)]


def _check_target(kernel: Kernel, target_points: Optional[int]) -> None:
    """Reject a subsampling target that would keep no point."""
    if target_points is not None and target_points < 1:
        raise ValueError(
            f"target_points for kernel {kernel.name!r} must be >= 1, "
            f"got {target_points}"
        )


def explore_kernel(
    kernel: Kernel,
    spec,
    target_points: Optional[int] = None,
    candidate_overrides: Optional[Dict[str, Sequence]] = None,
) -> KernelDesignSpace:
    """Explore one kernel on one platform; returns its design space.

    ``target_points`` mirrors Table II's per-kernel design counts; when
    given, the evaluated space is thinned to that size (``>= 1``).
    """
    _check_target(kernel, target_points)
    configs = enumerate_configs(kernel, spec, overrides=candidate_overrides)
    points = _evaluate(kernel, spec, configs)
    if not points:
        raise RuntimeError(
            f"no feasible design for kernel {kernel.name!r} on {spec.name!r}"
        )
    if target_points is not None:
        points = _subsample(points, target_points)
    return KernelDesignSpace(kernel.name, spec.name, spec.device_type, points)


def explore_application(
    kernels: Sequence[Kernel],
    specs: Sequence,
    targets: Optional[Dict[Tuple[str, DeviceType], int]] = None,
    strategy: str = "exhaustive",
    search=None,
    metrics=None,
    candidate_overrides: Optional[Dict[str, Sequence]] = None,
) -> Dict[Tuple[str, str], KernelDesignSpace]:
    """Explore every kernel of an application on every platform.

    Returns ``{(kernel_name, platform_name): KernelDesignSpace}`` — the
    complete compile-time product the runtime scheduler loads.

    ``strategy`` selects the explorer: ``"exhaustive"`` enumerates and
    evaluates the whole pruned space; ``"guided"`` runs the
    successive-halving + genetic search of :mod:`repro.optim.search`
    under ``search`` (a :class:`~repro.optim.search.SearchConfig`,
    defaulted when omitted), attaching per-space ``search_stats``.
    The pairs are explored in (kernels x specs) order; the guided
    search's RNG is keyed per (seed, kernel, platform).

    ``metrics`` (a ``MetricsRegistry``) counts the design points the
    spaces hold in ``dse_design_points_total``.
    """
    if strategy not in ("exhaustive", "guided"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "guided":
        from .search import SearchConfig, explore_kernel_guided

        if search is None:
            search = SearchConfig()
    spaces: Dict[Tuple[str, str], KernelDesignSpace] = {}
    for kernel in kernels:
        for spec in specs:
            target = None
            if targets is not None:
                target = targets.get((kernel.name, spec.device_type))
            if strategy == "guided":
                space, _ = explore_kernel_guided(
                    kernel,
                    spec,
                    search=search,
                    target_points=target,
                    candidate_overrides=candidate_overrides,
                )
            else:
                space = explore_kernel(
                    kernel,
                    spec,
                    target_points=target,
                    candidate_overrides=candidate_overrides,
                )
            spaces[(kernel.name, spec.name)] = space
    if metrics is not None:
        metrics.counter("dse_design_points_total").inc(
            sum(len(space) for space in spaces.values())
        )
    return spaces
