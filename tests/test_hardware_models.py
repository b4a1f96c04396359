"""Unit tests for the GPU/FPGA analytical models, PCIe and DVFS."""

import pytest

from conftest import small_kernel
from repro.hardware import (
    AMD_W9100,
    DVFSPolicy,
    FPGAModel,
    GPUModel,
    ImplConfig,
    NVIDIA_K20,
    PCIeLink,
    XILINX_7V3,
    XILINX_ZCU102,
)
from repro.hardware.fpga_model import ResourceUsage
from repro.hardware.specs import DeviceType, spec_by_name
from repro.patterns import Kernel, Map, PPG, Tensor


class TestSpecs:
    def test_gpu_peak_flops(self):
        # 2816 cores x 2 flops x 0.93 GHz
        assert AMD_W9100.peak_gflops == pytest.approx(2816 * 2 * 0.93, rel=1e-6)

    def test_fpga_peak_flops_derated(self):
        assert XILINX_7V3.peak_gflops < XILINX_7V3.dsp_slices * 2 * 0.47

    def test_spec_lookup(self):
        assert spec_by_name(NVIDIA_K20.name) is NVIDIA_K20
        with pytest.raises(KeyError):
            spec_by_name("TPUv4")

    def test_device_types(self):
        assert AMD_W9100.device_type == DeviceType.GPU
        assert XILINX_7V3.device_type == DeviceType.FPGA


class TestImplConfig:
    def test_astuple_is_the_flat_field_tuple(self):
        import dataclasses
        import itertools

        for flags in itertools.product((False, True), repeat=5):
            cfg = ImplConfig(256, 8, 2, 4, *flags, freq_scale=0.5)
            assert cfg.astuple() == dataclasses.astuple(cfg)

    def test_defaults_valid(self):
        ImplConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"work_group_size": 0},
            {"work_group_size": 2048},
            {"unroll": 0},
            {"compute_units": 0},
            {"bram_ports": 0},
            {"freq_scale": 0.05},
            {"freq_scale": 1.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ImplConfig(**kwargs)

    def test_parallel_lanes(self):
        assert ImplConfig(unroll=8, compute_units=4).parallel_lanes == 32

    def test_scaled_preserves_other_knobs(self):
        c = ImplConfig(unroll=4).scaled(0.5)
        assert c.unroll == 4 and c.freq_scale == 0.5


class TestGPUModel:
    def setup_method(self):
        self.model = GPUModel(AMD_W9100)
        self.kernel = small_kernel("g", elements=1 << 16, ops=32.0)

    def test_latency_positive_and_finite(self):
        est = self.model.estimate(self.kernel, ImplConfig())
        assert 0 < est.latency_ms < 1e5

    def test_power_between_idle_and_peak(self):
        est = self.model.estimate(self.kernel, ImplConfig())
        assert AMD_W9100.idle_power_w <= est.active_power_w <= AMD_W9100.peak_power_w

    def test_batching_is_sublinear(self):
        cfg = ImplConfig(work_group_size=256)
        l1 = self.model.estimate(self.kernel, cfg, 1).latency_ms
        l8 = self.model.estimate(self.kernel, cfg, 8).latency_ms
        assert l1 < l8 < 8 * l1

    def test_dvfs_slows_and_saves_power(self):
        fast = self.model.estimate(self.kernel, ImplConfig(freq_scale=1.0))
        slow = self.model.estimate(self.kernel, ImplConfig(freq_scale=0.45))
        assert slow.latency_ms > fast.latency_ms
        assert slow.active_power_w < fast.active_power_w

    def test_sequential_steps_add_floor(self):
        recurrent = small_kernel("r", elements=1 << 16, ops=32.0, steps=128)
        flat = self.model.estimate(self.kernel, ImplConfig()).latency_ms
        seq = self.model.estimate(recurrent, ImplConfig()).latency_ms
        assert seq > flat

    def test_coalescing_helps_irregular_kernels(self):
        from repro.patterns import Gather

        x = Tensor("x", (1 << 20,))
        ppg = PPG("irr")
        ppg.add_pattern(Gather((x,), index_space=1 << 20))
        k = Kernel("irr", ppg)
        plain = self.model.estimate(k, ImplConfig()).latency_ms
        coal = self.model.estimate(k, ImplConfig(memory_coalescing=True)).latency_ms
        assert coal < plain

    def test_fusion_cuts_intermediate_traffic(self):
        x = Tensor("x", (1 << 20,))
        ppg = PPG("f")
        a = ppg.add_pattern(Map((x,), ops_per_element=0.5))
        b = ppg.add_pattern(Map((x,), ops_per_element=0.5))
        ppg.connect(a, b)
        k = Kernel("f", ppg)
        unfused = self.model.estimate(k, ImplConfig()).latency_ms
        fused = self.model.estimate(k, ImplConfig(fused=True)).latency_ms
        assert fused < unfused

    def test_batch_zero_rejected(self):
        with pytest.raises(ValueError):
            self.model.estimate(self.kernel, ImplConfig(), 0)

    def test_floor_bias_preserves_marginal(self):
        from repro.hardware.specs import DeviceType

        k_plain = small_kernel("b0", elements=1 << 16, ops=32.0, steps=64)
        k_bias = small_kernel("b1", elements=1 << 16, ops=32.0, steps=64)
        k_bias.platform_bias = {DeviceType.GPU: 3.0}
        cfg = ImplConfig()
        m_plain = (
            self.model.estimate(k_plain, cfg, 8).latency_ms
            - self.model.estimate(k_plain, cfg, 1).latency_ms
        )
        m_bias = (
            self.model.estimate(k_bias, cfg, 8).latency_ms
            - self.model.estimate(k_bias, cfg, 1).latency_ms
        )
        assert m_bias == pytest.approx(m_plain, rel=1e-6)
        assert self.model.estimate(k_bias, cfg, 1).latency_ms == pytest.approx(
            3.0 * self.model.estimate(k_plain, cfg, 1).latency_ms, rel=1e-6
        )

    def test_estimate_never_writes_platform_bias(self, monkeypatch):
        """The bias floor of a recurrent kernel at batch > 1 comes from
        an unbiased model pass, not from rebinding the shared kernel's
        bias table (a concurrent caller could see it empty)."""
        from repro.hardware.specs import DeviceType

        kernel = small_kernel("w", elements=1 << 16, ops=32.0, steps=64)
        kernel.platform_bias = {DeviceType.GPU: 3.0}
        plain = small_kernel("w", elements=1 << 16, ops=32.0, steps=64)
        writes = []
        real_setattr = Kernel.__setattr__

        def spy(obj, name, value):
            if name == "platform_bias":
                writes.append(value)
            real_setattr(obj, name, value)

        monkeypatch.setattr(Kernel, "__setattr__", spy)
        cfg = ImplConfig(work_group_size=256)
        est = self.model.estimate(kernel, cfg, 8)
        lat, _ = self.model.estimate_batch(kernel, [cfg], 8)
        assert writes == []
        floor = self.model.estimate(plain, cfg, 1).latency_ms
        raw = self.model.estimate(plain, cfg, 8).latency_ms
        assert est.latency_ms == raw + (3.0 - 1.0) * floor
        assert float(lat[0]) == est.latency_ms


class TestFPGAModel:
    def setup_method(self):
        self.model = FPGAModel(XILINX_7V3)
        self.kernel = small_kernel("f", elements=1 << 16, ops=32.0)

    def test_more_lanes_is_faster(self):
        slow = self.model.estimate(self.kernel, ImplConfig(unroll=1))
        fast = self.model.estimate(self.kernel, ImplConfig(unroll=16, bram_ports=16))
        assert fast.latency_ms < slow.latency_ms

    def test_pipelining_beats_unpipelined(self):
        plain = self.model.estimate(self.kernel, ImplConfig(pipelined=False))
        piped = self.model.estimate(self.kernel, ImplConfig(pipelined=True))
        assert piped.latency_ms < plain.latency_ms
        assert piped.initiation_interval <= plain.initiation_interval

    def test_resources_grow_with_lanes(self):
        small = self.model.resources(self.kernel, ImplConfig(unroll=1))
        big = self.model.resources(self.kernel, ImplConfig(unroll=32, compute_units=4))
        assert big.dsp > small.dsp
        assert big.logic_cells_k > small.logic_cells_k

    def test_feasibility_limit(self):
        huge = ImplConfig(unroll=128, compute_units=16)
        usage = self.model.resources(self.kernel, huge)
        assert usage.fits(XILINX_7V3) == self.model.feasible(self.kernel, huge)

    def test_int8_packs_more_lanes_per_dsp(self):
        x8 = Tensor("x", (1 << 16,), "int8")
        xf = Tensor("x", (1 << 16,), "fp32")
        ppg8, ppgf = PPG("a"), PPG("b")
        ppg8.add_pattern(Map((x8,), ops_per_element=4.0))
        ppgf.add_pattern(Map((xf,), ops_per_element=4.0))
        cfg = ImplConfig(unroll=32, compute_units=4)
        r8 = self.model.resources(Kernel("a", ppg8), cfg)
        rf = self.model.resources(Kernel("b", ppgf), cfg)
        assert r8.dsp < rf.dsp

    def test_batching_is_linear_no_amortization(self):
        cfg = ImplConfig(unroll=16, pipelined=True, bram_ports=16)
        l1 = self.model.estimate(self.kernel, cfg, 1).latency_ms
        l4 = self.model.estimate(self.kernel, cfg, 4).latency_ms
        assert l4 > 2.5 * l1  # no GPU-style batch amortization

    def test_power_between_idle_and_peak(self):
        est = self.model.estimate(self.kernel, ImplConfig(unroll=16))
        assert XILINX_7V3.idle_power_w <= est.active_power_w <= XILINX_7V3.peak_power_w

    def test_frequency_derates_when_full(self):
        assert self.model.achieved_frequency_mhz(0.95, ImplConfig()) < (
            self.model.achieved_frequency_mhz(0.3, ImplConfig())
        )

    def test_resource_usage_utilization(self):
        usage = ResourceUsage(dsp=1800, bram_bytes=0, logic_cells_k=10.0)
        assert usage.utilization(XILINX_7V3) == pytest.approx(0.5)


class TestPCIe:
    def test_bandwidth_positive(self):
        assert PCIeLink().bandwidth_gbps > 0

    def test_transfer_time_scales_with_bytes(self):
        link = PCIeLink()
        assert link.transfer_ms(2 << 20) > link.transfer_ms(1 << 20)

    def test_zero_bytes_free(self):
        assert PCIeLink().transfer_ms(0) == 0.0

    def test_device_to_device_costs_more(self):
        link = PCIeLink()
        n = 8 << 20
        assert link.device_to_device_ms(n) > link.transfer_ms(n)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            PCIeLink(gen=7)
        with pytest.raises(ValueError):
            PCIeLink(lanes=3)
        with pytest.raises(ValueError):
            PCIeLink(efficiency=0.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            PCIeLink().transfer_ms(-1)


class TestDVFS:
    def test_gpu_idle_power_tracks_clocks(self):
        policy = DVFSPolicy(AMD_W9100)
        assert policy.idle_power_w(0.45) < policy.idle_power_w(1.0)

    def test_fpga_idle_power_mostly_static(self):
        policy = DVFSPolicy(XILINX_7V3)
        hi, lo = policy.idle_power_w(1.0), policy.idle_power_w(0.5)
        assert (hi - lo) / hi < 0.10

    def test_low_power_state_below_idle(self):
        for spec in (AMD_W9100, XILINX_ZCU102):
            policy = DVFSPolicy(spec)
            assert policy.low_power_state_w() < policy.idle_power_w(1.0)

    def test_pick_level_monotone_in_load(self):
        policy = DVFSPolicy(AMD_W9100)
        levels = [policy.pick_level(load) for load in (0.0, 0.3, 0.6, 0.95)]
        assert levels == sorted(levels)
        assert policy.pick_level(0.95) == 1.0

    def test_operating_point_snaps_to_ladder(self):
        policy = DVFSPolicy(AMD_W9100)
        op = policy.operating_point(0.7)
        assert op.freq_scale in policy.levels
