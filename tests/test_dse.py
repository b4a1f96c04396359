"""DSE outputs pinned by digest, subsample determinism and the
design space's Pareto front."""

import random

import numpy as np
import pytest

from conftest import small_kernel, synthetic_point, synthetic_space
from golden_cases import (
    DSE_FILE,
    DSE_KINDS,
    OVERRIDE,
    dse_case_id,
    dse_cases,
    dse_digest,
    load,
    run_dse_case,
)
from repro import apps, runtime
from repro.hardware import AMD_W9100, model_for
from repro.hardware.specs import DeviceType
from repro.optim import KnobSpace, explore_kernel
from repro.optim.dse import _point_order_key, _subsample
from repro.optim.search import _front_mask


def _point_tuple(p):
    return (p.kernel_name, p.platform, p.config, p.latency_ms, p.power_w, p.index)


DSE_GOLDEN = load(DSE_FILE)


class TestDseDigests:
    """Every point of the exhaustive spaces (without and with the apps'
    subsampling targets) and of the guided spaces on the enlarged knobs,
    in order with its index, plus each search's counters, against
    ``tests/golden/dse_digests.json``.  The benchmark pins only the
    Pareto fronts."""

    def test_fixture_covers_every_case(self):
        assert set(DSE_GOLDEN) == {
            dse_case_id(*case) for kind in DSE_KINDS for case in dse_cases(kind)
        }

    @pytest.mark.parametrize("kind", DSE_KINDS)
    def test_spaces_match_digests(self, kind):
        for case in dse_cases(kind):
            assert dse_digest(run_dse_case(*case)) == DSE_GOLDEN[
                dse_case_id(*case)
            ], case

    def test_override_holds_configs_that_do_not_place(self):
        """The override cases' FPGA space is the fixture's only one with
        configs that do not place: 78 of its 576, which the exhaustive
        space drops and the guided search screens out."""
        exhaustive = run_dse_case("override", "ASR", "I")
        guided = run_dse_case("override-guided", "ASR", "I")
        kernel, fpga = _override_fpga_pair()
        configs = KnobSpace(kernel, fpga, OVERRIDE).configs()
        feasible = model_for(fpga).estimate_batch(kernel, configs)[0]
        assert (len(configs), int((~feasible).sum())) == (576, 78)
        key = (kernel.name, fpga.name)
        assert len(exhaustive[key]) == 498
        assert guided[key].search_stats.screened_infeasible == 78

    def test_guided_evaluations_all_place(self):
        """The GA's children pass the placement mask its seeds are drawn
        under, and that mask is the model's feasibility column, so on
        the override space every guided evaluation places and becomes
        one point."""
        kernel, fpga = _override_fpga_pair()
        space = KnobSpace(kernel, fpga, OVERRIDE)
        model = model_for(fpga)
        index = np.arange(len(space))
        mask = model.resource_columns(
            kernel, {name: space.column(name, index) for name in model.RESOURCE_KNOBS}
        )[0]
        feasible = model.estimate_batch(kernel, space.configs())[0]
        assert np.array_equal(mask, feasible)
        guided = run_dse_case("override-guided", "ASR", "I")
        stats = guided[(kernel.name, fpga.name)].search_stats
        assert not stats.exhaustive_equivalent and stats.generations > 0
        assert len(guided[(kernel.name, fpga.name)]) == stats.evaluations == 64


def _override_fpga_pair():
    """ASR's ``LSTM_acoustic`` and the FPGA of Setting I: the override
    cases' pair whose configs do not all place."""
    [kernel] = [k for k in apps.build("ASR").kernels if k.name == "LSTM_acoustic"]
    [fpga] = [
        s for s in runtime.setting("I", "Heter-Poly").platforms
        if s.device_type == DeviceType.FPGA
    ]
    return kernel, fpga


class TestSubsampleDeterminism:
    def _points(self):
        kernel = small_kernel("sub", elements=1 << 14, ops=16.0)
        return list(explore_kernel(kernel, AMD_W9100).points)

    def test_input_order_invariant(self):
        """Subsampling is a function of the point *set*: shuffling the
        input (as different worker interleavings could) changes nothing."""
        points = self._points()
        baseline = [_point_tuple(p) for p in _subsample(list(points), 16)]
        for seed in range(5):
            shuffled = list(points)
            random.Random(seed).shuffle(shuffled)
            assert [_point_tuple(p) for p in _subsample(shuffled, 16)] == baseline

    def test_order_key_is_total(self):
        """No two distinct configs may compare equal under the key."""
        points = self._points()
        keys = [_point_order_key(p) for p in points]
        assert len(set(keys)) == len(keys)

    def test_small_spaces_untouched(self):
        points = self._points()[:5]
        assert _subsample(points, 10) is points

    def test_picks_distinct_points(self):
        """With more points than the target the sampling step exceeds 1,
        so every target keeps that many distinct points, the first and
        the last of the order among them."""
        points = [
            synthetic_point("k", "p", DeviceType.GPU, 1.0 + i, 10.0)
            for i in range(80)
        ]
        for target in range(1, len(points)):
            picked = _subsample(points, target)
            assert len({id(p) for p in picked}) == len(picked) == target
            assert picked[0] is points[0]
            if target > 1:
                assert picked[-1] is points[-1]


class TestParetoFrontier:
    """``KernelDesignSpace.pareto()``: the front the scheduler reads and
    ``space_hypervolume`` sweeps."""

    def test_matches_brute_force_dominance(self):
        rng = random.Random(11)
        items = [
            (rng.randrange(1, 21) * 1.0, rng.randrange(1, 21) * 1.0)
            for _ in range(200)
        ]
        space = synthetic_space("k", "p", DeviceType.GPU, items)
        front = [(p.latency_ms, p.power_w) for p in space.pareto()]
        # No frontier member is dominated by any item.
        for a in front:
            assert not any(
                b[0] <= a[0] and b[1] <= a[1] and b != a for b in items
            )
        # Every excluded item is weakly dominated by some frontier member.
        for it in items:
            if it not in front:
                assert any(f[0] <= it[0] and f[1] <= it[1] for f in front)

    def test_duplicate_keeps_first(self):
        """Of points with equal objectives the front keeps the one the
        space lists first."""
        space = synthetic_space(
            "k", "p", DeviceType.GPU, [(2.0, 0.5), (1.0, 1.0), (1.0, 1.0)]
        )
        assert [p.index for p in space.pareto()] == [0, 2]
        assert space.pareto()[0] is space.points[0]

    def test_sorted_invariants(self):
        rng = random.Random(3)
        items = [
            (rng.randrange(1, 30) * 0.5, rng.randrange(1, 30) * 0.5)
            for _ in range(300)
        ]
        front = synthetic_space("k", "p", DeviceType.GPU, items).pareto()
        f1s = [p.latency_ms for p in front]
        f2s = [p.power_w for p in front]
        assert f1s == sorted(f1s) and len(set(f1s)) == len(f1s)
        assert f2s == sorted(f2s, reverse=True) and len(set(f2s)) == len(f2s)

    @pytest.mark.parametrize("seed", range(4))
    def test_front_mask_matches_space_pareto(self, seed):
        """The GA's front (``_front_mask`` over its evaluated members)
        and a space's ``pareto()`` hold the same objectives, so the one
        hypervolume sweep reads the same front either way."""
        rng = np.random.default_rng(seed)
        items = (rng.integers(1, 12, size=(80, 2)) * 0.5).tolist()
        latency, power = np.array(items).T
        mask = _front_mask(latency, power)
        space = synthetic_space("k", "p", DeviceType.GPU, items)
        assert sorted(zip(latency[mask], power[mask])) == [
            (p.latency_ms, p.power_w) for p in space.pareto()
        ]
