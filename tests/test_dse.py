"""DSE outputs pinned by digest, subsample determinism and the
incremental Pareto frontier."""

import random

import pytest

from conftest import small_kernel
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
from repro.optim import KnobSpace, ParetoFrontier, explore_kernel, pareto_front
from repro.optim.dse import _point_order_key, _subsample


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
        [kernel] = [
            k for k in apps.build("ASR").kernels if k.name == "LSTM_acoustic"
        ]
        [fpga] = [
            s for s in runtime.setting("I", "Heter-Poly").platforms
            if s.device_type == DeviceType.FPGA
        ]
        configs = KnobSpace(kernel, fpga, OVERRIDE).configs()
        feasible = model_for(fpga).estimate_batch(kernel, configs)[0]
        assert (len(configs), int((~feasible).sum())) == (576, 78)
        key = (kernel.name, fpga.name)
        assert len(exhaustive[key]) == 498
        assert guided[key].search_stats.screened_infeasible == 78


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


class TestParetoFrontier:
    def test_incremental_matches_batch(self):
        rng = random.Random(7)
        items = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(500)]
        frontier = ParetoFrontier()
        for it in items:
            frontier.insert(it, it[0], it[1])
        assert frontier.items() == pareto_front(items, lambda t: t)

    def test_matches_brute_force_dominance(self):
        rng = random.Random(11)
        items = [
            (rng.randrange(20) * 1.0, rng.randrange(20) * 1.0) for _ in range(200)
        ]
        front = pareto_front(items, lambda t: t)
        # No frontier member is strictly dominated by any item.
        for a in front:
            assert not any(
                b[0] <= a[0] and b[1] <= a[1] and b != a for b in front
            )
        # Every excluded item is weakly dominated by some frontier member.
        for it in items:
            if it not in front:
                assert any(f[0] <= it[0] and f[1] <= it[1] for f in front)

    def test_duplicate_keeps_first(self):
        a, b = ("first", (1.0, 1.0)), ("second", (1.0, 1.0))
        frontier = ParetoFrontier()
        assert frontier.insert(a, 1.0, 1.0)
        assert not frontier.insert(b, 1.0, 1.0)
        assert frontier.items() == [a]

    def test_insert_evicts_dominated_run(self):
        frontier = ParetoFrontier()
        for f1, f2 in [(1.0, 9.0), (2.0, 8.0), (3.0, 7.0), (4.0, 1.0)]:
            frontier.insert((f1, f2), f1, f2)
        assert len(frontier) == 4
        # (1.5, 0.5) dominates everything with f1 >= 1.5.
        assert frontier.insert((1.5, 0.5), 1.5, 0.5)
        assert frontier.objectives() == [(1.0, 9.0), (1.5, 0.5)]

    def test_dominated_probe(self):
        frontier = ParetoFrontier()
        frontier.insert("a", 2.0, 2.0)
        assert frontier.dominated(3.0, 3.0)
        assert frontier.dominated(2.0, 2.0)
        assert not frontier.dominated(1.0, 3.0)
        assert not frontier.dominated(3.0, 1.0)

    def test_sorted_invariants(self):
        rng = random.Random(3)
        frontier = ParetoFrontier()
        for _ in range(300):
            f1, f2 = rng.uniform(0, 10), rng.uniform(0, 10)
            frontier.insert((f1, f2), f1, f2)
        objs = frontier.objectives()
        f1s = [o[0] for o in objs]
        f2s = [o[1] for o in objs]
        assert f1s == sorted(f1s) and len(set(f1s)) == len(f1s)
        assert f2s == sorted(f2s, reverse=True) and len(set(f2s)) == len(f2s)
