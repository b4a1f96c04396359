"""Unit tests for knobs, local/global optimization, DSE and Pareto."""

import pytest

from conftest import fp64_kernel, small_kernel, synthetic_space
from repro.hardware import AMD_W9100, INTEL_ARRIA10, XILINX_7V3, FPGAModel
from repro.hardware.specs import DeviceType
from repro.optim import (
    GlobalOptimizer,
    LocalOptimizer,
    applicable_knobs,
    enumerate_configs,
    explore_kernel,
    knob_candidates,
    space_hypervolume,
)
from repro.patterns import Gather, Kernel, Map, PatternKind, PPG, Tensor, analyze_kernel


class TestKnobs:
    def test_freq_scale_always_applicable(self):
        for dt in DeviceType:
            assert "freq_scale" in applicable_knobs([PatternKind.MAP], dt)

    def test_gpu_map_knobs_match_table1(self):
        knobs = applicable_knobs([PatternKind.MAP], DeviceType.GPU)
        assert {"work_group_size", "unroll"} <= knobs
        assert "compute_units" not in knobs  # FPGA-only knob

    def test_fpga_map_knobs_match_table1(self):
        knobs = applicable_knobs([PatternKind.MAP], DeviceType.FPGA)
        assert {"work_group_size", "compute_units", "unroll", "bram_ports"} <= knobs

    def test_gather_enables_memory_knobs(self):
        gpu = applicable_knobs([PatternKind.GATHER], DeviceType.GPU)
        assert {"use_scratchpad", "memory_coalescing"} <= gpu
        fpga = applicable_knobs([PatternKind.GATHER], DeviceType.FPGA)
        assert "double_buffer" in fpga

    def test_candidates_only_for_active_knobs(self):
        cands = knob_candidates([PatternKind.PIPELINE], DeviceType.GPU)
        assert set(cands) == {"pipelined", "freq_scale"}

    def test_union_across_kinds(self):
        cands = knob_candidates(
            [PatternKind.MAP, PatternKind.GATHER], DeviceType.GPU
        )
        assert "memory_coalescing" in cands and "unroll" in cands


class TestLocalOptimizer:
    def test_parallelism_prunes_unroll(self):
        tiny = small_kernel("t", elements=2, ops=1.0)
        plan = LocalOptimizer(DeviceType.FPGA).plan(analyze_kernel(tiny))
        assert max(plan.candidates.get("unroll", (1,))) <= 2

    def test_forced_coalescing_for_gather(self):
        x = Tensor("x", (4096,))
        ppg = PPG("g")
        g = ppg.add_pattern(Gather((x,)))
        m = ppg.add_pattern(Map((x,)))
        ppg.connect(g, m)
        k = Kernel("g", ppg)
        plan = LocalOptimizer(DeviceType.GPU).plan(analyze_kernel(k))
        assert plan.forced.get("memory_coalescing") is True
        assert "memory_coalescing" not in plan.candidates

    def test_gather_marked_pending(self):
        x = Tensor("x", (4096,))
        ppg = PPG("g")
        g = ppg.add_pattern(Gather((x,)))
        k = Kernel("g", ppg)
        plan = LocalOptimizer(DeviceType.GPU).plan(analyze_kernel(k))
        assert g in plan.pending

    def test_space_size_counts_combinations(self):
        k = small_kernel("s", elements=1 << 12, ops=8.0)
        plan = LocalOptimizer(DeviceType.GPU).plan(analyze_kernel(k))
        expected = 1
        for values in plan.candidates.values():
            expected *= len(values)
        assert plan.space_size == expected


class TestGlobalOptimizer:
    def test_fusion_within_capacity(self):
        x = Tensor("x", (1024,))  # 4 KB intermediate, fits on chip
        ppg = PPG("f")
        a = ppg.add_pattern(Map((x,)))
        b = ppg.add_pattern(Map((x,)))
        ppg.connect(a, b)
        k = Kernel("f", ppg)
        plan = GlobalOptimizer(XILINX_7V3).plan(analyze_kernel(k))
        assert plan.fusions
        assert plan.fused_bytes == k.intermediate_bytes
        assert plan.fusion_fraction == pytest.approx(1.0)

    def test_oversized_intermediate_not_fused(self):
        x = Tensor("x", (1 << 24,))  # 64 MB intermediate
        ppg = PPG("f")
        a = ppg.add_pattern(Map((x,)))
        b = ppg.add_pattern(Map((x,)))
        ppg.connect(a, b)
        plan = GlobalOptimizer(XILINX_7V3).plan(analyze_kernel(Kernel("f", ppg)))
        assert not plan.fusions
        assert not plan.worthwhile

    def test_budget_spent_greedily(self):
        cap = GlobalOptimizer(XILINX_7V3).onchip_capacity_bytes
        x = Tensor("x", (cap // 8,), "fp32")  # each edge = cap/2 bytes
        ppg = PPG("f")
        a, b, c = (ppg.add_pattern(Map((x,))) for _ in range(3))
        ppg.connect(a, b)
        ppg.connect(b, c)
        plan = GlobalOptimizer(XILINX_7V3).plan(analyze_kernel(Kernel("f", ppg)))
        assert len(plan.fusions) == 2  # both fit within the budget


class TestDSE:
    def test_enumerate_includes_forced_values(self):
        x = Tensor("x", (4096,))
        ppg = PPG("g")
        g = ppg.add_pattern(Gather((x,)))
        m = ppg.add_pattern(Map((x,)))
        ppg.connect(g, m)
        k = Kernel("g", ppg)
        configs = enumerate_configs(k, AMD_W9100)
        assert configs
        assert all(c.memory_coalescing for c in configs)

    def test_explore_respects_target(self):
        k = small_kernel("d", elements=1 << 14, ops=16.0)
        space = explore_kernel(k, AMD_W9100, target_points=16)
        assert len(space) <= 16

    def test_points_indexed_and_sorted(self, explored_small_spaces):
        k, spaces = explored_small_spaces
        space = spaces[(k.name, AMD_W9100.name)]
        lats = [p.latency_ms for p in space]
        assert lats == sorted(lats)
        assert [p.index for p in space] == list(range(len(space)))

    def test_fpga_points_all_feasible(self, explored_small_spaces):
        k, spaces = explored_small_spaces
        configs = [p.config for p in spaces[(k.name, XILINX_7V3.name)]]
        assert FPGAModel(XILINX_7V3).estimate_batch(k, configs)[0].all()

    def test_configs_that_do_not_place_are_dropped(self):
        """The space keeps exactly the configs the FPGA model's
        feasibility column places: wide fp64 designs over-subscribe an
        Arria 10's DSPs and are left out."""
        kernel = fp64_kernel()
        configs = enumerate_configs(kernel, INTEL_ARRIA10)
        feasible = FPGAModel(INTEL_ARRIA10).estimate_batch(kernel, configs)[0]
        space = explore_kernel(kernel, INTEL_ARRIA10)
        assert 0 < len(space) < len(configs)
        assert sorted(repr(p.config) for p in space) == sorted(
            repr(c) for c, ok in zip(configs, feasible) if ok
        )

    def test_selection_helpers(self, explored_small_spaces):
        k, spaces = explored_small_spaces
        space = spaces[(k.name, AMD_W9100.name)]
        assert space.min_latency().latency_ms == min(p.latency_ms for p in space)
        best_eff = max(p.energy_efficiency for p in space)
        assert space.max_efficiency().energy_efficiency == best_eff


class TestPareto:
    def test_frontier_no_domination(self, explored_small_spaces):
        k, spaces = explored_small_spaces
        for space in spaces.values():
            frontier = space.pareto()
            for a in frontier:
                assert not any(b.dominates(a) for b in space if b is not a)

    def test_hypervolume_monotone_in_points(self):
        ref = (10.0, 10.0)
        small = synthetic_space("k", "p", DeviceType.GPU, [(5.0, 5.0)])
        bigger = synthetic_space("k", "p", DeviceType.GPU, [(5.0, 5.0), (2.0, 8.0)])
        assert space_hypervolume(bigger, ref) > space_hypervolume(small, ref) > 0
        assert space_hypervolume(bigger, ref) == 25.0 + 3.0 * 2.0

    def test_design_space_rejects_empty(self):
        from repro.optim import KernelDesignSpace

        with pytest.raises(ValueError, match="empty"):
            KernelDesignSpace("k", "p", DeviceType.GPU, [])

    def test_synthetic_space_pareto_shape(self):
        space = synthetic_space(
            "k", "p", DeviceType.GPU,
            [(10, 100), (20, 50), (30, 60), (40, 20)],
        )
        frontier = space.pareto()
        assert [(p.latency_ms, p.power_w) for p in frontier] == [
            (10, 100), (20, 50), (40, 20),
        ]
