"""Guided design-space exploration.

Exhaustive enumeration scales multiplicatively with every new Table-I
knob; the OPT004 budget caps it at 2048 configs/kernel and the next
knob dimensions (thread coarsening, inter-kernel pipes) blow well past
that.  This module searches the space instead of enumerating it, with
two stages under one model-evaluation budget:

1. **Successive halving** over the full knob space using a cheap
   low-fidelity analytical proxy (vectorized roofline-style scoring, no
   real model call).  The space is a
   :class:`~repro.optim.dse.KnobSpace` addressed by config index: the
   FPGA placement screen, the proxy and the rungs all run on index
   arrays and knob columns, and only the surviving seeds become
   :class:`~repro.hardware.config.ImplConfig` objects.  Each rung halves
   the candidate pool under a rotating latency/power scalarization —
   always retaining the proxy-Pareto members — until the pool reaches
   the genetic population size.
2. **Genetic refinement** over real model evaluations: tournament
   selection on Pareto-rank-peeled parents, per-knob uniform crossover,
   and mutation resampling from the enumerated candidate lists, driven
   by a deterministic ``SeedSequence``-keyed RNG.  Genomes are lists
   of allele indices (the config number's digits), and each child is
   deduplicated as its config number; an ``ImplConfig`` is built only
   for the children sent to the model.

All real evaluations go through the vectorized
:meth:`~repro.hardware.model_cache.ModelEvalCache.evaluate_many` batch
call (one numpy model call for the seeds, one per generation), and no
estimate outlives the search.  The budget counts the configs evaluated,
so the same seed yields identical evaluation counts, and the search
degrades to exhaustive exactly when the enumerated space fits the
budget, guaranteeing the guided front equals the exhaustive front on
today's apps (the golden A/B property the tests pin down).
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware.config import ImplConfig
from ..hardware.fpga_model import FPGAModel
from ..hardware.model_cache import model_cache
from ..hardware.specs import DeviceType
from ..patterns.ppg import Kernel
from .design_point import DesignPoint, KernelDesignSpace
from .dse import (
    KnobSpace,
    _check_target,
    _design_points,
    _evaluate,
    _lint_verdicts,
    _subsample,
)
from .pareto import IncrementalHypervolume, ParetoFrontier

__all__ = [
    "SearchConfig",
    "RungStats",
    "GenerationStats",
    "SearchStats",
    "search_rng",
    "explore_kernel_guided",
    "space_hypervolume",
]


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs of the guided explorer.

    ``max_evals`` budgets *real model evaluations*; spaces that
    fit the budget are evaluated exhaustively.  ``seed`` (an int) keys
    the deterministic RNG.
    """

    max_evals: int = 512
    seed: int = 0
    rungs: int = 3
    population: int = 32
    generations: int = 8
    tournament: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.15
    stall_generations: int = 3

    def __post_init__(self) -> None:
        # The seed keys the RNG by its text: None would key a stream of
        # its own instead of failing.
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError("seed must be an int")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.rungs < 1:
            raise ValueError("rungs must be >= 1")
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.tournament < 1:
            raise ValueError("tournament must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.stall_generations < 1:
            raise ValueError("stall_generations must be >= 1")


@dataclass(frozen=True)
class RungStats:
    """One successive-halving rung: pool size before and after."""

    rung: int
    pool: int
    kept: int


@dataclass(frozen=True)
class GenerationStats:
    """One genetic generation: cumulative evals and front quality."""

    generation: int
    evaluations: int
    front_points: int
    hypervolume: float


@dataclass
class SearchStats:
    """Everything a guided exploration did.

    ``explored`` is the enumerated space size; ``evaluations`` the
    configs evaluated with the real models; ``skipped`` the
    duplicate/pruned children the GA declined to re-evaluate;
    ``screened_infeasible`` the FPGA configs the vectorized resource
    screen dropped before any latency/power model ran.
    """

    kernel_name: str
    platform: str
    strategy: str = "guided"
    explored: int = 0
    pruned_invalid: int = 0
    screened_infeasible: int = 0
    skipped: int = 0
    evaluations: int = 0
    generations: int = 0
    exhaustive_equivalent: bool = False
    hypervolume: float = 0.0
    rungs: List[RungStats] = field(default_factory=list)
    generation_log: List[GenerationStats] = field(default_factory=list)


def search_rng(seed: int, kernel: Kernel, spec) -> np.random.Generator:
    """Deterministic per-(seed, kernel, platform) random generator.

    Keyed through sha256 of the kernel's model signature and the
    platform name, so streams are independent of ``PYTHONHASHSEED``
    and enumeration order — the same triple always replays the same
    search.
    """
    digest = hashlib.sha256(
        f"{seed}|{kernel.model_signature()}|{spec.name}".encode()
    ).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


# -- low-fidelity proxy -------------------------------------------------------


def _proxy_objectives(
    kernel: Kernel, spec, space: KnobSpace, index: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Roofline-style screening objectives of the configs at ``index``,
    vectorized over the space's knob columns.

    Deliberately *not* the real models: no occupancy tables, no
    calibration bias, no resource placement — just monotone trends in
    the knobs, cheap enough to score the entire space without building
    a config or calling a real model.  Used only to rank
    successive-halving pools; proxy numbers never reach a DesignPoint.
    """

    def col(name: str) -> np.ndarray:
        return space.column(name, index)

    freq = col("freq_scale")
    unroll = col("unroll").astype(np.float64)
    wg = col("work_group_size").astype(np.float64)
    ops = float(kernel.total_ops)
    io = float(max(kernel.io_bytes, 1))
    dynamic = spec.peak_power_w - spec.idle_power_w
    if spec.device_type == DeviceType.GPU:
        coal = np.where(col("memory_coalescing"), 1.0, 0.55)
        scratch = np.where(col("use_scratchpad"), 0.8, 1.0)
        occ = np.minimum(wg / 256.0, 1.0) * np.sqrt(np.minimum(unroll / 4.0, 1.0))
        occ = np.maximum(occ, 0.05)
        compute = ops / (spec.peak_gflops * 1e6 * freq * occ)
        memory = io * scratch / (spec.mem_bandwidth_gbps * 1e6 * coal)
        power = spec.idle_power_w + dynamic * occ * freq**2.2
    else:
        cu = col("compute_units").astype(np.float64)
        ports = col("bram_ports").astype(np.float64)
        lanes = np.maximum(unroll * cu, 1.0)
        ii = np.where(col("pipelined"), 1.0, 4.0)
        starve = np.maximum(lanes / np.maximum(ports * 32.0, 1.0), 1.0)
        fmax = spec.peak_freq_mhz * spec.achievable_freq_frac * freq
        compute = ops * ii * starve / (lanes * fmax * 1e3)
        bw = np.where(col("double_buffer"), 0.75, 0.45)
        memory = io / (spec.mem_bandwidth_gbps * 1e6 * bw)
        util = np.minimum((lanes + ports) / 64.0, 1.0)
        power = spec.idle_power_w + dynamic * np.maximum(util, 0.05) * freq**2
    latency = np.maximum(compute, memory) + 0.3 * np.minimum(compute, memory)
    latency = np.where(col("fused"), latency * 0.9, latency)
    return latency, power


def _front_mask(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Membership mask of the 2-D minimization Pareto front.

    Walking the points in ``(f1, f2)`` order (stable, NaN last), a
    point is on the front when its ``f2`` is below every ``f2`` before
    it; a NaN ``f2`` is never below and never counts, which is what
    ``np.fmin`` skipping NaN gives the running minimum.
    """
    order = np.lexsort((f2, f1))
    walked = f2[order]
    best = np.fmin.accumulate(np.concatenate(([np.inf], walked)))[:-1]
    mask = np.zeros(len(f1), dtype=bool)
    mask[order] = walked < best
    return mask


def _pareto_ranks(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Front-peeling rank per point: 0 = Pareto front, 1 = next, ..."""
    n = len(f1)
    ranks = np.full(n, -1, dtype=np.int64)
    remaining = np.arange(n)
    rank = 0
    while len(remaining):
        mask = _front_mask(f1[remaining], f2[remaining])
        ranks[remaining[mask]] = rank
        remaining = remaining[~mask]
        rank += 1
    return ranks


def _normalized(values: np.ndarray) -> np.ndarray:
    span = float(np.ptp(values))
    if span <= 0.0:
        return np.zeros(len(values))
    return (values - float(values.min())) / span


def _successive_halving(
    proxy_lat: np.ndarray,
    proxy_pow: np.ndarray,
    search: SearchConfig,
    stats: SearchStats,
) -> np.ndarray:
    """Shrink the candidate pool to the GA population size, rung by rung.

    Each rung halves the pool (the final rung clamps to the population
    size) under a rotating latency/power blend; the proxy-Pareto members
    of the current pool are always retained so neither extreme of the
    trade-off can be screened out, and the first ``keep_n - |front|``
    other members in stable score order fill the rest.  Returns the
    kept positions into the proxy arrays in ascending order — fully
    deterministic, no RNG involved.
    """
    target = search.population
    pool = np.arange(len(proxy_lat))
    for rung in range(search.rungs):
        if len(pool) <= target:
            break
        keep_n = max(len(pool) // 2, target)
        if rung == search.rungs - 1:
            keep_n = target
        lat = proxy_lat[pool]
        pw = proxy_pow[pool]
        weight = (rung + 0.5) / search.rungs
        score = weight * _normalized(lat) + (1.0 - weight) * _normalized(pw)
        keep = _front_mask(lat, pw)
        order = np.argsort(score, kind="stable")
        rest = order[~keep[order]]
        keep[rest[: max(keep_n - int(keep.sum()), 0)]] = True
        stats.rungs.append(RungStats(rung=rung, pool=len(pool), kept=int(keep.sum())))
        pool = pool[keep]
    return pool


# -- genetic refinement -------------------------------------------------------

#: A genome: one allele index per gene of the :class:`KnobSpace`.  A
#: list, never changed once bred: a search frees the genomes of all its
#: evaluated configs at once, and as tuples they would stay on CPython's
#: per-size tuple free list, where only tuples of that size reuse them.
Genome = List[int]

#: A feasible evaluated config with its modelled latency and power and
#: its genome, as the GA's population holds it.
Member = Tuple[ImplConfig, float, float, Genome]


def _selection_keys(population: Sequence[Member]) -> List[Tuple]:
    """Total-order sort keys: Pareto rank, scalarized score, knob tuple."""
    lat = np.fromiter((p[1] for p in population), np.float64, len(population))
    pw = np.fromiter((p[2] for p in population), np.float64, len(population))
    ranks = _pareto_ranks(lat, pw)
    score = 0.5 * _normalized(lat) + 0.5 * _normalized(pw)
    return [
        (int(ranks[i]), float(score[i]), population[i][0].astuple())
        for i in range(len(population))
    ]


def _selection_order(population: Sequence[Member]) -> List[int]:
    """Member positions, best first by :func:`_selection_keys`."""
    keys = _selection_keys(population)
    return sorted(range(len(population)), key=keys.__getitem__)


def _first_equal(alleles: Tuple) -> List[int]:
    """Each allele index mapped to the first index of an equal value, so
    equal configs carry one genome and one config number even where an
    override lists a candidate twice."""
    first: Dict = {}
    return [first.setdefault(value, j) for j, value in enumerate(alleles)]


def _tournament(
    rng: np.random.Generator,
    ranked: Sequence[Genome],
    position: Sequence[int],
    size: int,
) -> Genome:
    """The best of ``size`` uniformly drawn members: ``ranked`` holds
    the genomes best first, ``position[m]`` member ``m``'s place there."""
    entrants = rng.integers(0, len(position), size=min(size, len(position)))
    return ranked[min(map(position.__getitem__, entrants.tolist()))]


def _breed(
    rng: np.random.Generator,
    ranked: Sequence[Genome],
    position: Sequence[int],
    search: SearchConfig,
    alleles: Sequence[List[int]],
) -> Genome:
    """One child: tournament parents, uniform crossover, mutation.

    ``alleles[k]`` maps gene ``k``'s drawn candidate index to its
    :func:`_first_equal` index."""
    genes = list(_tournament(rng, ranked, position, search.tournament))
    if rng.random() < search.crossover_rate:
        other = _tournament(rng, ranked, position, search.tournament)
        for k in range(len(genes)):
            if rng.random() < 0.5:
                genes[k] = other[k]
    for k, choices in enumerate(alleles):
        if rng.random() < search.mutation_rate:
            genes[k] = choices[int(rng.integers(len(choices)))]
    return genes


def _evaluate_batch(
    kernel: Kernel,
    spec,
    space: KnobSpace,
    ids: Sequence[int],
    genomes: Sequence[Genome],
    evaluated: Dict[int, Optional[Member]],
) -> List[Member]:
    """Evaluate configs ``ids`` of ``space`` in one batch model call.

    Records each config number in ``evaluated`` (``None`` for an FPGA
    design that does not place) and returns the feasible members, in
    order.
    """
    configs = [space.config(i) for i in ids]
    feasible, latency, power = model_cache.evaluate_many(kernel, spec, configs)
    members: List[Member] = []
    for i, genome, config, ok, lat, pw in zip(
        ids, genomes, configs, feasible, latency, power
    ):
        member = (config, lat, pw, genome) if ok else None
        evaluated[i] = member
        if member is not None:
            members.append(member)
    return members


def _points_of(
    kernel: Kernel,
    spec,
    evaluated: Dict[int, Optional[Member]],
) -> List[DesignPoint]:
    """Every feasible evaluated config as an indexed design point."""
    members = [m for m in evaluated.values() if m is not None]
    configs, latency, power, _ = zip(*members)
    return _design_points(kernel, spec, configs, latency, power)


def space_hypervolume(
    space: KernelDesignSpace, reference: Optional[Tuple[float, float]] = None
) -> float:
    """Hypervolume of a design space's latency/power Pareto front.

    The default reference is 1.05x the space's own worst corner;
    callers comparing two spaces (a guided-vs-exhaustive ratio) must
    pass one shared reference.
    """
    if reference is None:
        reference = (
            1.05 * max(p.latency_ms for p in space.points),
            1.05 * max(p.power_w for p in space.points),
        )
    frontier: ParetoFrontier[DesignPoint] = ParetoFrontier()
    for p in space.points:
        frontier.insert(p, p.latency_ms, p.power_w)
    return frontier.hypervolume(reference)


def explore_kernel_guided(
    kernel: Kernel,
    spec,
    search: Optional[SearchConfig] = None,
    target_points: Optional[int] = None,
    validate: bool = False,
    candidate_overrides: Optional[Dict[str, Sequence]] = None,
) -> Tuple[KernelDesignSpace, SearchStats]:
    """Guided exploration of one (kernel, platform) pair.

    Mirrors :func:`~repro.optim.dse.explore_kernel` (same lint gate,
    same ``pruned_invalid`` accounting, same subsampling) but spends at
    most ``search.max_evals`` model evaluations.  When the enumerated
    space fits the budget the search is exhaustive-equivalent and the
    returned front is exactly the exhaustive one.  Returns the design
    space (built from every feasible evaluated point, with the stats
    attached as ``space.search_stats``) plus the :class:`SearchStats`.
    """
    search = search or SearchConfig()
    _check_target(kernel, target_points)
    stats = SearchStats(kernel_name=kernel.name, platform=spec.name)
    if validate:
        from ..lint import LintContext, run_lint

        run_lint(kernel, LintContext(spec=spec)).raise_if_errors(
            f"kernel {kernel.name!r}"
        )
    space = KnobSpace(kernel, spec, candidate_overrides)
    stats.explored = len(space)
    index = np.arange(len(space))
    configs: Optional[List[ImplConfig]] = None
    pruned: frozenset = frozenset()
    if validate:
        configs = space.configs()
        keep, _report = _lint_verdicts(kernel, spec, configs)
        pruned = frozenset(i for i, ok in enumerate(keep) if not ok)
        index = np.flatnonzero(keep)
        stats.pruned_invalid = len(configs) - len(index)

    if len(index) <= search.max_evals:
        # Budget covers the whole space: evaluate everything, so the
        # guided front IS the exhaustive front.
        stats.exhaustive_equivalent = True
        stats.evaluations = len(index)
        if configs is None:
            configs = space.configs()
        points = _evaluate(kernel, spec, [configs[i] for i in index])
        return _finish(kernel, spec, points, target_points, stats)

    rng = search_rng(search.seed, kernel, spec)

    # FPGA placement screen: the vectorized resource model rejects
    # un-placeable configs without spending latency/power evaluations.
    if spec.device_type == DeviceType.FPGA:
        model = FPGAModel(spec)
        cols = {name: space.column(name, index) for name in model.RESOURCE_KNOBS}
        feasible = model.resource_columns(kernel, cols)[0]
        stats.screened_infeasible = int(len(index) - int(feasible.sum()))
        index = index[feasible]
    if not len(index):
        raise RuntimeError(
            f"no feasible design for kernel {kernel.name!r} on {spec.name!r}"
        )

    proxy_lat, proxy_pow = _proxy_objectives(kernel, spec, space, index)
    pool = _successive_halving(proxy_lat, proxy_pow, search, stats)
    alleles = [_first_equal(values) for values in space.alleles]
    strides = space.strides
    seeds = [
        [choices[i // k % len(choices)] for choices, k in zip(alleles, strides)]
        for i in index[pool[: search.max_evals]].tolist()
    ]

    # Config numbers evaluated so far -> member (None: does not place).
    evaluated: Dict[int, Optional[Member]] = {}
    population = _evaluate_batch(
        kernel,
        spec,
        space,
        [sum(map(mul, genome, strides)) for genome in seeds],
        seeds,
        evaluated,
    )
    stats.evaluations += len(seeds)
    if not population:
        raise RuntimeError(
            f"no feasible design for kernel {kernel.name!r} on {spec.name!r}"
        )

    reference = (
        2.0 * max(p[1] for p in population),
        2.0 * max(p[2] for p in population),
    )
    front: IncrementalHypervolume[ImplConfig] = IncrementalHypervolume(reference)
    for config, lat, pw, _ in population:
        front.insert(config, lat, pw)
    stats.generation_log.append(
        GenerationStats(0, stats.evaluations, len(front), front.area)
    )

    stall = 0
    for gen in range(1, search.generations + 1):
        remaining = search.max_evals - stats.evaluations
        if remaining <= 0:
            break
        order = _selection_order(population)
        ranked = [population[m][3] for m in order]
        position = np.argsort(order).tolist()  # member -> place in ranked
        # Config number -> genome of each child bred this generation.
        pending: Dict[int, Genome] = {}
        attempts = 0
        want = min(search.population, remaining)
        while len(pending) < want and attempts < 20 * search.population:
            attempts += 1
            genome = _breed(rng, ranked, position, search, alleles)
            child = sum(map(mul, genome, strides))
            if child in evaluated or child in pending or child in pruned:
                stats.skipped += 1
                continue
            pending[child] = genome
        if not pending:
            break
        members = _evaluate_batch(
            kernel, spec, space, list(pending), list(pending.values()), evaluated
        )
        stats.evaluations += len(pending)
        population.extend(members)
        gain = 0.0
        for config, lat, pw, _ in members:
            gain += front.insert(config, lat, pw)
        stats.generations = gen
        stats.generation_log.append(
            GenerationStats(gen, stats.evaluations, len(front), front.area)
        )
        population = _survivors(population, search.population)
        stall = stall + 1 if gain <= 0.0 else 0
        if stall >= search.stall_generations:
            break

    points = _points_of(kernel, spec, evaluated)
    return _finish(kernel, spec, points, target_points, stats)


def _finish(
    kernel: Kernel,
    spec,
    points: List[DesignPoint],
    target_points: Optional[int],
    stats: SearchStats,
) -> Tuple[KernelDesignSpace, SearchStats]:
    if not points:
        raise RuntimeError(
            f"no feasible design for kernel {kernel.name!r} on {spec.name!r}"
        )
    if target_points is not None:
        points = _subsample(points, target_points)
    space = KernelDesignSpace(
        kernel.name,
        spec.name,
        spec.device_type,
        points,
        pruned_invalid=stats.pruned_invalid,
    )
    stats.hypervolume = space_hypervolume(space)
    space.search_stats = stats
    return space, stats


def _survivors(population: List[Member], size: int) -> List[Member]:
    """Deterministic (rank, score, knob-tuple) truncation selection."""
    if len(population) <= size:
        return population
    return [population[m] for m in _selection_order(population)[:size]]
