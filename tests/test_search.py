"""Guided DSE: golden A/B parity, determinism, hypervolume, batch eval.

The contracts pinned down here:

* full-budget guided exploration recovers the exhaustive Pareto front
  *exactly* on every bundled app (exhaustive-equivalence);
* on a >=10x-enlarged synthetic knob space, the budgeted search reaches
  >=0.99 of the exhaustive hypervolume with >=5x fewer model
  evaluations;
* the same seed yields an identical product — fronts, evaluation
  counts, reported stats — on every run;
* the batch model reproduces the floats the scalar model gave
  (``tests/golden/model_digests.json``), and gives the same floats for
  one batch size per row (a design point's whole batch ladder in one
  call) as for one size for every row (the DSE's calls);
* the knob space is numbered in the enumeration's order, and the
  budgeted search screens it as index columns, building configs only
  for the points it evaluates.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from conftest import small_kernel
from golden_cases import (
    APPS,
    ENLARGE,
    GPU_BATCHES,
    MODEL_FILE,
    MODEL_SPECS,
    load,
    model_case_id,
    model_columns,
    model_digest,
)
from repro import apps, runtime
from repro.hardware import AMD_W9100, NVIDIA_K20, XILINX_7V3, ImplConfig
from repro.hardware.config import FIELD_DTYPES
from repro.hardware.fpga_model import FPGAModel
from repro.hardware.gpu_model import GPUModel
from repro.hardware.model_cache import ModelEvalCache
from repro.obs import MetricsRegistry, SpanTracer
from repro.optim import (
    GlobalOptimizer,
    IncrementalHypervolume,
    KnobSpace,
    LocalOptimizer,
    ParetoFrontier,
    SearchConfig,
    explore_kernel_guided,
    hypervolume_2d,
    space_hypervolume,
)
from repro.optim.design_point import DesignPoint
from repro.optim.dse import (
    _evaluate,
    _point_order_key,
    enumerate_configs,
    explore_application,
    explore_kernel,
)
from repro.optim.search import (
    RungStats,
    SearchStats,
    _front_mask,
    _normalized,
    _successive_halving,
)
from repro.patterns.analysis import KernelAnalysis, analyze_kernel

PLATFORMS = runtime.setting("I", "Heter-Poly").platforms

def _front_key(space):
    return [(p.config, p.latency_ms, p.power_w) for p in space.pareto()]


def _space_key(space):
    return [(p.config, p.latency_ms, p.power_w, p.index) for p in space]


# ---------------------------------------------------------------------------
# Hypervolume
# ---------------------------------------------------------------------------


class TestHypervolume:
    def _random_items(self, seed, n=300):
        rng = random.Random(seed)
        return [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]

    @pytest.mark.parametrize("seed", range(5))
    def test_frontier_sweep_matches_brute_force(self, seed):
        """The frontier's O(n) sweep must equal hypervolume_2d on random
        fronts (same reference, same items)."""
        items = self._random_items(seed)
        reference = (11.0, 11.0)
        frontier = ParetoFrontier()
        for it in items:
            frontier.insert(it, it[0], it[1])
        assert frontier.hypervolume(reference) == pytest.approx(
            hypervolume_2d(items, lambda t: t, reference), rel=1e-12
        )

    def test_points_beyond_reference_excluded(self):
        frontier = ParetoFrontier()
        frontier.insert("in", 1.0, 1.0)
        frontier.insert("out", 0.5, 99.0)  # beyond ref in f2
        assert frontier.hypervolume((2.0, 2.0)) == pytest.approx(1.0)

    def test_empty_frontier_zero(self):
        assert ParetoFrontier().hypervolume((1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_incremental_gains_sum_to_area(self, seed):
        """insert() gains must telescope to the final area, which must
        equal a from-scratch sweep of the same point set."""
        items = self._random_items(seed, n=200)
        reference = (11.0, 11.0)
        inc = IncrementalHypervolume(reference)
        total = 0.0
        for it in items:
            gain = inc.insert(it, it[0], it[1])
            assert gain >= 0.0
            total += gain
        assert total == pytest.approx(inc.area, rel=1e-9)
        assert inc.area == pytest.approx(
            hypervolume_2d(items, lambda t: t, reference), rel=1e-9
        )

    def test_incremental_dominated_offer_is_free(self):
        inc = IncrementalHypervolume((10.0, 10.0))
        assert inc.insert("a", 2.0, 2.0) > 0.0
        area = inc.area
        assert inc.insert("b", 3.0, 3.0) == 0.0  # dominated: no re-sweep
        assert inc.area == area and len(inc) == 1


# ---------------------------------------------------------------------------
# SearchConfig validation
# ---------------------------------------------------------------------------


class TestSearchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_evals": 0},
            {"rungs": 0},
            {"population": 1},
            {"generations": -1},
            {"tournament": 0},
            {"crossover_rate": 1.5},
            {"mutation_rate": -0.1},
            {"stall_generations": 0},
            {"seed": None},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


# ---------------------------------------------------------------------------
# Golden A/B: guided == exhaustive at full budget
# ---------------------------------------------------------------------------


class TestGoldenParity:
    @pytest.mark.parametrize("name", sorted(apps.APP_BUILDERS))
    def test_full_budget_recovers_exhaustive_front_exactly(self, name):
        """On every bundled app the un-enlarged spaces fit an unbounded
        budget, so guided must be exhaustive-equivalent with fronts
        equal point-for-point."""
        app = apps.build(name)
        exhaustive = explore_application(app.kernels, PLATFORMS)
        guided = explore_application(
            app.kernels,
            PLATFORMS,
            strategy="guided",
            search=SearchConfig(max_evals=10**9, seed=0),
        )
        assert set(exhaustive) == set(guided)
        for key in exhaustive:
            assert _front_key(exhaustive[key]) == _front_key(guided[key]), key
            stats = guided[key].search_stats
            assert stats.exhaustive_equivalent
            assert stats.evaluations == stats.explored

    def test_exhaustive_spaces_carry_no_search_stats(self):
        app = apps.build("MF")
        spaces = explore_application(app.kernels, PLATFORMS)
        assert all(s.search_stats is None for s in spaces.values())


# ---------------------------------------------------------------------------
# Budgeted search on the enlarged space
# ---------------------------------------------------------------------------


class TestBudgetedQuality:
    def _explore_pair(self, budget=512, seed=0):
        app = apps.build("MF")
        exhaustive = explore_application(
            app.kernels, PLATFORMS, candidate_overrides=ENLARGE
        )
        guided = explore_application(
            app.kernels,
            PLATFORMS,
            strategy="guided",
            search=SearchConfig(max_evals=budget, seed=seed),
            candidate_overrides=ENLARGE,
        )
        return exhaustive, guided

    def test_recovers_hypervolume_with_far_fewer_evals(self):
        """The CI quality gate in miniature: >=0.99 hypervolume ratio per
        space at >=5x fewer model evaluations than enumeration."""
        exhaustive, guided = self._explore_pair()
        explored = evals = 0
        budgeted = 0
        for key, ex_space in exhaustive.items():
            g_space = guided[key]
            stats = g_space.search_stats
            budgeted += not stats.exhaustive_equivalent
            explored += stats.explored
            evals += stats.evaluations
            assert stats.evaluations <= 512
            reference = (
                1.05 * max(p.latency_ms for p in ex_space),
                1.05 * max(p.power_w for p in ex_space),
            )
            ratio = space_hypervolume(g_space, reference) / space_hypervolume(
                ex_space, reference
            )
            assert ratio >= 0.99, (key, ratio)
        # The enlarged GPU spaces genuinely exceed the budget (tiny
        # kernels whose space still fits it stay exhaustive-equivalent).
        assert budgeted > 0
        assert explored >= 5 * evals

    def test_enlargement_is_at_least_10x(self):
        """The synthetic override must actually enlarge every per-device
        space >=10x, or the quality test above proves nothing."""
        app = apps.build("MF")
        for kernel in app.kernels:
            for spec in PLATFORMS:
                plain = len(enumerate_configs(kernel, spec))
                enlarged = len(
                    enumerate_configs(kernel, spec, overrides=ENLARGE)
                )
                assert enlarged >= 10 * plain, (kernel.name, spec.name)

    def test_same_seed_identical_on_rerun(self):
        """A rerun with the same seed reproduces every front and every
        reported count."""
        _, first = self._explore_pair(budget=256)
        _, again = self._explore_pair(budget=256)
        for key in first:
            assert _space_key(first[key]) == _space_key(again[key])
            assert (
                dataclasses.asdict(first[key].search_stats)
                == dataclasses.asdict(again[key].search_stats)
            )

    def test_unknown_strategy_rejected(self):
        app = apps.build("MF")
        with pytest.raises(ValueError, match="strategy"):
            explore_application(app.kernels, PLATFORMS, strategy="random")

    def test_guided_single_kernel_entry_point(self):
        """explore_kernel_guided is usable directly and attaches stats."""
        kernel = apps.build("MF").kernels[0]
        space, stats = explore_kernel_guided(
            kernel,
            AMD_W9100,
            search=SearchConfig(max_evals=64, seed=0),
            candidate_overrides=ENLARGE,
        )
        assert space.search_stats is stats
        assert 0 < stats.evaluations <= 64
        assert stats.rungs and stats.generation_log
        assert stats.hypervolume > 0.0


# ---------------------------------------------------------------------------
# Reporting: metrics counters and trace events
# ---------------------------------------------------------------------------


class TestReporting:
    def test_metrics_counters_match_stats(self):
        app = apps.build("MF")
        registry = MetricsRegistry()
        spaces = explore_application(
            app.kernels,
            PLATFORMS,
            strategy="guided",
            search=SearchConfig(max_evals=256, seed=0),
            candidate_overrides=ENLARGE,
            metrics=registry,
        )
        stats = [s.search_stats for s in spaces.values()]
        assert registry.value("dse_design_points_total") == sum(
            len(s) for s in spaces.values()
        )
        assert registry.value("dse_search_evaluations_total") == sum(
            s.evaluations for s in stats
        )
        assert registry.value("dse_search_explored_total") == sum(
            s.explored for s in stats
        )
        assert registry.value("dse_search_skipped_total") == sum(
            s.skipped for s in stats
        )
        assert registry.value("dse_search_screened_total") == sum(
            s.screened_infeasible for s in stats
        )
        assert registry.value("dse_search_generations_total") == sum(
            s.generations for s in stats
        )

    def test_trace_events_emitted(self):
        tracer = SpanTracer()
        explore_application(
            apps.build("MF").kernels,
            PLATFORMS,
            strategy="guided",
            search=SearchConfig(max_evals=256, seed=0),
            candidate_overrides=ENLARGE,
            tracer=tracer,
        )
        events = [e.to_dict() for e in tracer.events]
        kinds = {e["kind"] for e in events}
        assert kinds == {
            "dse.search.rung", "dse.search.generation", "dse.search.done"
        }
        done = [e for e in events if e["kind"] == "dse.search.done"]
        assert {(e["args"]["kernel"], e["args"]["platform"]) for e in done} == {
            (k.name, s.name)
            for k in apps.build("MF").kernels
            for s in PLATFORMS
        }


# ---------------------------------------------------------------------------
# Vectorized batch models: the scalar model's recorded floats, and per-row
# batch sizes float-identical to one size for every row
# ---------------------------------------------------------------------------

MODEL_GOLDEN = load(MODEL_FILE)


class TestBatchFloatIdentity:
    def test_fixture_covers_every_case(self):
        assert set(MODEL_GOLDEN) == {
            model_case_id(a, spec) for a in APPS for spec in MODEL_SPECS
        }

    @pytest.mark.parametrize("name", APPS)
    def test_every_app_kernel_batch_matches_scalar(self, name):
        """``estimate_batch`` reproduces bit for bit what the deleted
        scalar ``estimate()``/``feasible()`` gave on every config of
        every app kernel's knob space, on all five specs at batch 1 and
        on the GPUs at every ladder size (ASR et al. carry
        ``platform_bias != 1``, covering the bias paths):
        ``tests/golden/model_digests.json`` was recorded from the batch
        model and checked row by row against the scalar one."""
        app = apps.build(name)
        for spec in MODEL_SPECS:
            assert model_digest(model_columns(app, spec)) == MODEL_GOLDEN[
                model_case_id(name, spec)
            ], spec.name

    @pytest.mark.parametrize("batch", [3, 8])
    def test_per_row_batches_match_int_batch(self, batch):
        """The batch>1 (request batching) dimension, including the GPU
        bias floor of recurrent kernels: one size per row gives the
        floats of one size for every row, and the rows do not depend on
        each other."""
        app = apps.build("ASR")  # recurrent kernels + bias != 1
        for kernel in app.kernels:
            for spec in (AMD_W9100, NVIDIA_K20):
                configs = enumerate_configs(kernel, spec)
                gpu = GPUModel(spec)
                lat, power = gpu.estimate_batch(kernel, configs, batch)
                sizes = [batch, 1] * (len(configs) // 2) + [batch] * (len(configs) % 2)
                row_lat, row_power = gpu.estimate_batch(kernel, configs, sizes)
                one_lat, one_power = gpu.estimate_batch(kernel, configs, 1)
                expect_lat = np.where(np.array(sizes) == 1, one_lat, lat)
                expect_power = np.where(np.array(sizes) == 1, one_power, power)
                assert row_lat.tolist() == expect_lat.tolist()
                assert row_power.tolist() == expect_power.tolist()

    def test_one_call_ladder_matches_int_batches(self):
        """A design point's whole ladder in one call returns the floats
        of one int-batch call per size, on every app's kernels."""
        for name in sorted(apps.APP_BUILDERS):
            for kernel in apps.build(name).kernels:
                for spec in (AMD_W9100, NVIDIA_K20):
                    gpu = GPUModel(spec)
                    for config in enumerate_configs(kernel, spec)[::9]:
                        lat, power = gpu.estimate_batch(
                            kernel, [config] * len(GPU_BATCHES), GPU_BATCHES
                        )
                        for i, b in enumerate(GPU_BATCHES):
                            one_lat, one_power = gpu.estimate_batch(
                                kernel, [config], b
                            )
                            assert lat[i] == one_lat[0], (kernel.name, b)
                            assert power[i] == one_power[0], (kernel.name, b)

    def test_dse_evaluation_is_one_batch_call(self):
        """``evaluate_many`` returns the batch model's columns as Python
        values and counts every config; the DSE keeps the feasible
        configs with the batch model's floats, as design points in
        (latency, power) order, ties in config order, each carrying its
        place as its index."""
        kernel = small_kernel("place", elements=1 << 16, ops=64.0)
        configs = [
            ImplConfig(unroll=u, compute_units=c)
            for u in (1, 64, 256)
            for c in (1, 16, 64)
        ]
        model = FPGAModel(XILINX_7V3)
        calls = ModelEvalCache()
        feasible, lat, power = calls.evaluate_many(kernel, XILINX_7V3, configs)
        assert feasible == model.estimate_batch(kernel, configs)[0].tolist()
        assert True in feasible and False in feasible
        assert all(type(v) is float for v in lat + power)
        assert (calls.hits, calls.misses) == (0, len(configs))
        points = _evaluate(kernel, XILINX_7V3, configs)
        kept = [i for i, ok in enumerate(feasible) if ok]
        _, kept_lat, kept_power = model.estimate_batch(
            kernel, [configs[i] for i in kept]
        )
        rows = sorted(zip(kept_lat.tolist(), kept_power.tolist(), kept))
        assert [(p.latency_ms, p.power_w, p.config, p.index) for p in points] == [
            (row_lat, row_power, configs[i], index)
            for index, (row_lat, row_power, i) in enumerate(rows)
        ]
        ok, _, _ = calls.evaluate_many(kernel, AMD_W9100, configs)
        assert ok == [True] * len(configs)
        assert calls.misses == 2 * len(configs)

    def test_empty_and_bad_batch(self):
        kernel = small_kernel("edge")
        lat, power = GPUModel(AMD_W9100).estimate_batch(kernel, [])
        assert len(lat) == 0 and len(power) == 0
        assert len(FPGAModel(XILINX_7V3).estimate_batch(kernel, [])[0]) == 0
        with pytest.raises(ValueError):
            GPUModel(AMD_W9100).estimate_batch(kernel, [], batch=0)


# ---------------------------------------------------------------------------
# Columnar space: configs built only for evaluated points
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, cls):
    """Record every ``cls`` built from now on (one entry per
    ``__post_init__`` call)."""
    built = []
    post_init = cls.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    return built


def _walk_key(f1, f2, k):
    """Position of point ``k`` in the front walk: (f1, f2, index) order
    with NaN after every number, as ``np.lexsort`` sorts."""
    def part(v):
        return (bool(np.isnan(v)), 0.0 if np.isnan(v) else float(v))

    return part(f1[k]) + part(f2[k]) + (k,)


def _brute_force_front(f1, f2):
    """Point j is on the front when its f2 is a number and no point ahead
    of it in the walk has f2 <= its f2 (on NaN-free inputs: no other
    point dominates it, and it is the first of its exact duplicates)."""
    n = len(f1)
    keys = [_walk_key(f1, f2, k) for k in range(n)]
    return np.array(
        [
            not np.isnan(f2[j])
            and not any(keys[k] < keys[j] and f2[k] <= f2[j] for k in range(n))
            for j in range(n)
        ],
        dtype=bool,
    )


def _reference_halving(n, proxy_lat, proxy_pow, search, stats):
    """Successive halving as a per-index loop, the reference the
    vectorized rungs must reproduce."""
    target = search.population
    pool = list(range(n))
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
        order = np.argsort(score, kind="stable")
        kept = []
        seen = set()
        for j in np.nonzero(_front_mask(lat, pw))[0]:
            kept.append(pool[j])
            seen.add(pool[j])
        for j in order:
            if len(kept) >= max(keep_n, len(seen)):
                break
            idx = pool[int(j)]
            if idx not in seen:
                seen.add(idx)
                kept.append(idx)
        kept.sort()
        stats.rungs.append(RungStats(rung=rung, pool=len(pool), kept=len(kept)))
        pool = kept
    return pool


class TestColumnarSearch:
    def test_budgeted_run_builds_few_configs(self, monkeypatch):
        """WT Intra_Prediction's enlarged FPGA space (40,960 configs) is
        screened as index columns and bred as config numbers: an
        ImplConfig is built for each config sent to the model (the
        seeds and the children not skipped as duplicates) and for the
        once-per-candidate checks, and for nothing else."""
        kernel = apps.build("WT").kernels[0]
        assert kernel.name == "Intra_Prediction"
        space = KnobSpace(kernel, XILINX_7V3, ENLARGE)
        checks = 1 + sum(
            len(values)
            for name, values in zip(space.names, space.values)
            if name not in space.forced
        )
        built = _count_calls(monkeypatch, ImplConfig)
        _, stats = explore_kernel_guided(
            kernel,
            XILINX_7V3,
            search=SearchConfig(max_evals=512, seed=0),
            candidate_overrides=ENLARGE,
        )
        assert stats.explored == 40_960 and not stats.exhaustive_equivalent
        assert stats.skipped > 0
        assert len(built) == stats.evaluations + checks

    @pytest.mark.parametrize("strategy", ["exhaustive", "guided"])
    def test_one_design_point_per_returned_point(self, monkeypatch, strategy):
        """Without a subsampling target, an exploration builds each
        returned point once, already in its place with its index."""
        kernel = apps.build("WT").kernels[0]
        built = _count_calls(monkeypatch, DesignPoint)
        if strategy == "exhaustive":
            space = explore_kernel(kernel, XILINX_7V3)
        else:
            space, stats = explore_kernel_guided(
                kernel,
                XILINX_7V3,
                search=SearchConfig(max_evals=512, seed=0),
                candidate_overrides=ENLARGE,
            )
            assert not stats.exhaustive_equivalent
        assert len(built) == len(space) > 100
        assert [p.index for p in space] == list(range(len(space)))

    def test_candidate_listed_twice_is_one_gene_value(self):
        """Children are deduplicated as config numbers; a candidate an
        override lists twice maps to one allele index, so no config is
        evaluated twice and the space holds each config once."""
        kernel = apps.build("MF").kernels[0]
        overrides = {
            "freq_scale": ENLARGE["freq_scale"],
            "work_group_size": (64, 128, 64, 256, 128, 64),
        }
        space, stats = explore_kernel_guided(
            kernel,
            AMD_W9100,
            search=SearchConfig(max_evals=128, seed=0),
            candidate_overrides=overrides,
        )
        assert not stats.exhaustive_equivalent and stats.generations > 0
        assert len({p.config for p in space}) == len(space)

    @pytest.mark.parametrize("seed", range(12))
    def test_front_mask_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 50))
        # Few distinct values force ties in either objective and exact
        # duplicates; some NaN in each.
        f1 = rng.integers(0, 6, n).astype(float)
        f2 = rng.integers(0, 6, n).astype(float)
        f1[rng.random(n) < 0.15] = np.nan
        f2[rng.random(n) < 0.15] = np.nan
        assert np.array_equal(_front_mask(f1, f2), _brute_force_front(f1, f2))

    def test_front_mask_is_textbook_front_without_nan(self):
        rng = np.random.default_rng(7)
        f1 = rng.integers(0, 8, 60).astype(float)
        f2 = rng.integers(0, 8, 60).astype(float)
        mask = _front_mask(f1, f2)
        for j in range(60):
            dominated = any(
                f1[k] <= f1[j] and f2[k] <= f2[j] and (f1[k], f2[k]) != (f1[j], f2[j])
                for k in range(60)
            )
            first = all((f1[k], f2[k]) != (f1[j], f2[j]) for k in range(j))
            assert mask[j] == (not dominated and first)

    @pytest.mark.parametrize("seed", range(8))
    def test_successive_halving_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3000))
        search = SearchConfig(
            rungs=int(rng.integers(1, 5)), population=int(rng.integers(2, 64))
        )
        # Rounded proxies tie often, exercising the stable score order.
        lat = np.round(rng.random(n) * 20) + 1.0
        pw = np.round(rng.random(n) * 20) + 1.0
        got_stats = SearchStats("k", "p")
        ref_stats = SearchStats("k", "p")
        got = _successive_halving(lat, pw, search, got_stats)
        assert list(got) == _reference_halving(n, lat, pw, search, ref_stats)
        assert got_stats.rungs == ref_stats.rungs

    def test_invalid_override_rejected_on_both_paths(self):
        """A bad candidate raises when the space is built, also when it
        is not the first value (the first config would pass)."""
        kernel = apps.build("MF").kernels[0]
        overrides = {"work_group_size": (64, 2048)}
        with pytest.raises(ValueError, match="work_group_size"):
            explore_kernel(kernel, AMD_W9100, candidate_overrides=overrides)
        with pytest.raises(ValueError, match="work_group_size"):
            explore_kernel_guided(
                kernel,
                AMD_W9100,
                search=SearchConfig(max_evals=64, seed=0),
                candidate_overrides=overrides,
            )


# ---------------------------------------------------------------------------
# KnobSpace numbering and subsampling targets
# ---------------------------------------------------------------------------


def _reference_shape(kernel, spec, overrides):
    """What the enumeration reads from the local and global plans: the
    sorted knob names with their (overridden) candidates, the forced
    values and the fusion options."""
    analysis = analyze_kernel(kernel)
    local = LocalOptimizer(spec.device_type).plan(analysis)
    candidates = dict(local.candidates)
    for name, values in (overrides or {}).items():
        if name in candidates:
            candidates[name] = tuple(values)
    fused_options = (
        (False, True) if GlobalOptimizer(spec).plan(analysis).worthwhile else (False,)
    )
    return (
        tuple((n, candidates[n]) for n in sorted(candidates)),
        tuple(sorted(local.forced.items())),
        fused_options,
    )


def _reference_enumeration(shape):
    """The enumeration as ``enumerate_configs`` wrote it out before the
    space was numbered: ``itertools.product`` over the sorted knob
    names' candidates, forced values applied, fusion innermost."""
    knobs, forced, fused_options = shape
    names = [n for n, _ in knobs]
    configs = []
    for values in itertools.product(*(v for _, v in knobs)):
        assignment = dict(zip(names, values))
        assignment.update(forced)
        for fused in fused_options:
            configs.append(ImplConfig(fused=fused, **assignment))
    return configs


_SETTING_PLATFORMS = list(
    {
        p.name: p
        for s in ("I", "II", "III")
        for p in runtime.setting(s, "Heter-Poly").platforms
    }.values()
)


class TestKnobSpace:
    @pytest.mark.parametrize("overrides", [None, ENLARGE], ids=["plain", "enlarged"])
    def test_numbering_and_columns_match_product_order(self, overrides):
        """On every kernel of the six apps x the Setting I-III
        platforms, config(i), the full list (by equality and by repr)
        and every column equal the product-order reference.  A space is
        a function of its candidate lists, forced values and fusion
        options, so each distinct shape is checked config by config
        once; every other space of that shape must carry the same lists
        and size.  config(i) is checked at every index of spaces up to
        4096 configs and at a seeded sample of 4096 indices, plus the
        last, of larger ones."""
        rng = np.random.default_rng(0)
        checked = {}
        for name in apps.APP_BUILDERS:
            for kernel in apps.build(name).kernels:
                for spec in _SETTING_PLATFORMS:
                    space = KnobSpace(kernel, spec, overrides)
                    shape = _reference_shape(kernel, spec, overrides)
                    layout = (space.names, space.values, space.forced, space.fused_options)
                    if shape in checked:
                        assert layout == checked[shape]
                        continue
                    checked[shape] = layout
                    reference = _reference_enumeration(shape)
                    assert len(space) == len(reference) > 0
                    configs = space.configs()
                    assert configs == reference
                    # Equality holds across 1 == 1.0 == True; the repr
                    # (which the benchmark digests) does not.
                    assert list(map(repr, configs)) == list(map(repr, reference))
                    sample = np.arange(len(space))
                    if len(space) > 4096:
                        sample = np.append(
                            rng.choice(len(space), 4096, replace=False), len(space) - 1
                        )
                    assert [repr(space.config(i)) for i in sample] == [
                        repr(reference[i]) for i in sample
                    ]
                    index = np.arange(len(space))
                    for field in FIELD_DTYPES:
                        column = space.column(field, index)
                        assert column.dtype == FIELD_DTYPES[field]
                        expect = np.array(
                            [getattr(c, field) for c in reference], FIELD_DTYPES[field]
                        )
                        assert np.array_equal(column, expect), (kernel.name, field)
        assert len(checked) > 1

    def test_config_values_are_python_scalars(self):
        """Configs carry the candidate tuples' own values, so their repr
        and hash match enumerated ones (not numpy scalars)."""
        kernel = apps.build("WT").kernels[0]
        space = KnobSpace(kernel, XILINX_7V3, ENLARGE)
        config = space.config(np.int64(len(space) - 1))
        assert config == space.configs()[-1]
        assert all(type(v) in (int, float, bool) for v in config.astuple())

    def test_out_of_range_index_rejected(self):
        space = KnobSpace(apps.build("MF").kernels[0], AMD_W9100)
        with pytest.raises(IndexError):
            space.config(len(space))
        with pytest.raises(IndexError):
            space.config(-1)

    def test_genes_list_varying_knobs_with_fusion_last(self):
        """The genes are the config number's digits: the sorted knob
        names with their candidates, then the fusion options, each with
        its place value."""
        space = KnobSpace(apps.build("ASR").kernels[0], XILINX_7V3, ENLARGE)
        assert space.genes == space.names + ("fused",)
        assert space.alleles == space.values + (space.fused_options,)
        assert space.alleles[space.genes.index("freq_scale")] == ENLARGE["freq_scale"]
        radices = [len(values) for values in space.alleles]
        assert space.strides == tuple(
            int(np.prod(radices[k + 1 :])) for k in range(len(radices))
        )
        assert space.strides[-1] == 1 and len(space) == int(np.prod(radices))

    def test_one_kernel_analysis_per_space(self, monkeypatch):
        """The local and the global pass read one analysis of the
        kernel: building a space analyzes its kernel once."""
        app = apps.build("ASR")
        built = []
        init = KernelAnalysis.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(KernelAnalysis, "__init__", counting_init)
        for kernel in app.kernels:
            for spec in _SETTING_PLATFORMS:
                KnobSpace(kernel, spec)
        assert len(built) == len(app.kernels) * len(_SETTING_PLATFORMS)


class TestTargetPoints:
    KERNEL = apps.build("ASR").kernels[0]

    def test_exhaustive_target_one_keeps_lowest_latency(self):
        full = explore_kernel(self.KERNEL, AMD_W9100)
        [point] = explore_kernel(self.KERNEL, AMD_W9100, target_points=1).points
        best = min(full.points, key=_point_order_key)
        assert dataclasses.replace(point, index=-1) == dataclasses.replace(
            best, index=-1
        )
        assert point.latency_ms == min(p.latency_ms for p in full)

    def test_guided_target_one_keeps_lowest_latency(self):
        kwargs = {
            "search": SearchConfig(max_evals=64, seed=0),
            "candidate_overrides": ENLARGE,
        }
        full, _ = explore_kernel_guided(self.KERNEL, AMD_W9100, **kwargs)
        thinned, stats = explore_kernel_guided(
            self.KERNEL, AMD_W9100, target_points=1, **kwargs
        )
        assert not stats.exhaustive_equivalent
        [point] = thinned.points
        assert point.config == min(full.points, key=_point_order_key).config

    @pytest.mark.parametrize("target", [0, -3])
    def test_target_below_one_rejected_on_both_paths(self, target):
        match = f"{self.KERNEL.name}.*{target}"
        with pytest.raises(ValueError, match=match):
            explore_kernel(self.KERNEL, AMD_W9100, target_points=target)
        with pytest.raises(ValueError, match=match):
            explore_kernel_guided(
                self.KERNEL,
                AMD_W9100,
                search=SearchConfig(max_evals=64, seed=0),
                target_points=target,
            )
