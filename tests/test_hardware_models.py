"""Unit tests for the GPU/FPGA analytical models, PCIe and DVFS."""

import numpy as np
import pytest

from conftest import fp64_kernel, small_kernel
from repro.hardware import (
    AMD_W9100,
    DVFSPolicy,
    FPGAModel,
    GPUModel,
    INTEL_ARRIA10,
    ImplConfig,
    NVIDIA_K20,
    PCIeLink,
    XILINX_7V3,
    XILINX_ZCU102,
)
from repro.hardware.config import config_columns
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


def _row(model, kernel, config, batch=1):
    """One config's ``(latency, power)`` from the batch model (and, on an
    FPGA, whether it places)."""
    columns = model.estimate_batch(kernel, [config], batch)
    return tuple(col[0].item() for col in columns)


class TestGPUModel:
    def setup_method(self):
        self.model = GPUModel(AMD_W9100)
        self.kernel = small_kernel("g", elements=1 << 16, ops=32.0)

    def test_latency_positive_and_finite(self):
        lat, _ = _row(self.model, self.kernel, ImplConfig())
        assert 0 < lat < 1e5

    def test_power_between_idle_and_peak(self):
        _, power = _row(self.model, self.kernel, ImplConfig())
        assert AMD_W9100.idle_power_w <= power <= AMD_W9100.peak_power_w

    def test_batching_is_sublinear(self):
        cfg = ImplConfig(work_group_size=256)
        (l1, l8), _ = self.model.estimate_batch(self.kernel, [cfg] * 2, [1, 8])
        assert l1 < l8 < 8 * l1

    def test_dvfs_slows_and_saves_power(self):
        (fast, slow), (fast_w, slow_w) = self.model.estimate_batch(
            self.kernel, [ImplConfig(freq_scale=1.0), ImplConfig(freq_scale=0.45)]
        )
        assert slow > fast
        assert slow_w < fast_w

    def test_sequential_steps_add_floor(self):
        recurrent = small_kernel("r", elements=1 << 16, ops=32.0, steps=128)
        flat, _ = _row(self.model, self.kernel, ImplConfig())
        seq, _ = _row(self.model, recurrent, ImplConfig())
        assert seq > flat

    def test_coalescing_helps_irregular_kernels(self):
        from repro.patterns import Gather

        x = Tensor("x", (1 << 20,))
        ppg = PPG("irr")
        ppg.add_pattern(Gather((x,), index_space=1 << 20))
        k = Kernel("irr", ppg)
        (plain, coal), _ = self.model.estimate_batch(
            k, [ImplConfig(), ImplConfig(memory_coalescing=True)]
        )
        assert coal < plain

    def test_fusion_cuts_intermediate_traffic(self):
        x = Tensor("x", (1 << 20,))
        ppg = PPG("f")
        a = ppg.add_pattern(Map((x,), ops_per_element=0.5))
        b = ppg.add_pattern(Map((x,), ops_per_element=0.5))
        ppg.connect(a, b)
        k = Kernel("f", ppg)
        (unfused, fused), _ = self.model.estimate_batch(
            k, [ImplConfig(), ImplConfig(fused=True)]
        )
        assert fused < unfused

    def test_batch_zero_rejected(self):
        # A zero batch, a zero row batch, or not one size per row.
        for batch in (0, [1, 0], [1]):
            with pytest.raises(ValueError):
                self.model.estimate_batch(self.kernel, [ImplConfig()] * 2, batch)

    def test_floor_bias_preserves_marginal(self):
        from repro.hardware.specs import DeviceType

        k_plain = small_kernel("b0", elements=1 << 16, ops=32.0, steps=64)
        k_bias = small_kernel("b1", elements=1 << 16, ops=32.0, steps=64)
        k_bias.platform_bias = {DeviceType.GPU: 3.0}
        cfgs = [ImplConfig()] * 2
        (p1, p8), _ = self.model.estimate_batch(k_plain, cfgs, [1, 8])
        (b1, b8), _ = self.model.estimate_batch(k_bias, cfgs, [1, 8])
        assert b8 - b1 == pytest.approx(p8 - p1, rel=1e-6)
        assert b1 == pytest.approx(3.0 * p1, rel=1e-6)

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
        lat, _ = self.model.estimate_batch(kernel, [cfg], 8)
        (_, ladder8), _ = self.model.estimate_batch(kernel, [cfg] * 2, [1, 8])
        assert writes == []
        (floor, raw), _ = self.model.estimate_batch(plain, [cfg] * 2, [1, 8])
        assert float(lat[0]) == raw + (3.0 - 1.0) * floor
        assert ladder8 == float(lat[0])


class TestFPGAModel:
    def setup_method(self):
        self.model = FPGAModel(XILINX_7V3)
        self.kernel = small_kernel("f", elements=1 << 16, ops=32.0)

    def test_more_lanes_is_faster(self):
        _, (slow, fast), _ = self.model.estimate_batch(
            self.kernel, [ImplConfig(unroll=1), ImplConfig(unroll=16, bram_ports=16)]
        )
        assert fast < slow

    def test_pipelining_beats_unpipelined(self):
        _, (plain, piped), _ = self.model.estimate_batch(
            self.kernel, [ImplConfig(pipelined=False), ImplConfig(pipelined=True)]
        )
        assert piped < plain

    def test_resources_grow_with_lanes(self):
        small = self.model.resources(self.kernel, ImplConfig(unroll=1))
        big = self.model.resources(self.kernel, ImplConfig(unroll=32, compute_units=4))
        assert big.dsp > small.dsp
        assert big.logic_cells_k > small.logic_cells_k

    def test_feasibility_limit(self):
        """A design places exactly when every resource count of
        :meth:`resources` is within the part's budget; one that does
        not carries NaN estimates."""
        for cfg in (ImplConfig(unroll=16), ImplConfig(unroll=128, compute_units=16)):
            usage = self.model.resources(self.kernel, cfg)
            fits = (
                usage.dsp <= XILINX_7V3.dsp_slices
                and usage.bram_bytes <= XILINX_7V3.bram_bytes
                and usage.logic_cells_k <= XILINX_7V3.logic_cells_k
            )
            feasible, lat, power = _row(self.model, self.kernel, cfg)
            assert feasible == fits == (cfg.unroll == 16)
            assert np.isnan(lat) == np.isnan(power) == (not fits)

    def test_wide_fp64_design_does_not_place_on_arria10(self):
        """256 fp64 lanes need 2048 DSPs and an Arria 10 has 1518."""
        kernel = fp64_kernel()
        model = FPGAModel(INTEL_ARRIA10)
        wide = ImplConfig(unroll=32, compute_units=8)
        assert model.resources(kernel, wide).dsp > INTEL_ARRIA10.dsp_slices
        assert _row(model, kernel, wide)[0] is False

    def test_default_fp64_design_places_on_arria10(self):
        kernel = fp64_kernel()
        model = FPGAModel(INTEL_ARRIA10)
        assert model.resources(kernel, ImplConfig()).dsp <= INTEL_ARRIA10.dsp_slices
        assert _row(model, kernel, ImplConfig())[0] is True

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
        _, l1, _ = _row(self.model, self.kernel, cfg, 1)
        _, l4, _ = _row(self.model, self.kernel, cfg, 4)
        assert l4 > 2.5 * l1  # no GPU-style batch amortization

    def test_power_between_idle_and_peak(self):
        _, _, power = _row(self.model, self.kernel, ImplConfig(unroll=16))
        assert XILINX_7V3.idle_power_w <= power <= XILINX_7V3.peak_power_w

    def test_frequency_derates_when_full(self):
        """More BRAM ports only add buffer copies at one lane, so the
        latency moves only through the clock: it derates once the
        fabric is more than 70% full, and not before."""
        cfgs = [ImplConfig(bram_ports=1), ImplConfig(bram_ports=16)]
        big = small_kernel("big", elements=1 << 22, ops=32.0)
        _, (roomy, full), _ = self.model.estimate_batch(big, cfgs)
        _, (tiny1, tiny16), _ = self.model.estimate_batch(self.kernel, cfgs)
        assert full > roomy
        assert tiny16 == tiny1

    def test_resource_usage_utilization(self):
        """The batch model's utilization is the dominant share of the
        part among :meth:`resources`' counts, capped at 1."""
        spec = XILINX_7V3
        configs = [
            ImplConfig(unroll=u, compute_units=c, bram_ports=p)
            for u, c, p in ((1, 1, 1), (16, 4, 16), (32, 8, 4), (128, 16, 1))
        ]
        cols = config_columns(configs, FPGAModel.RESOURCE_KNOBS)
        _, util, _ = self.model.resource_columns(self.kernel, cols)
        for cfg, u in zip(configs, util.tolist()):
            usage = self.model.resources(self.kernel, cfg)
            share = max(
                usage.dsp / spec.dsp_slices,
                usage.bram_bytes / spec.bram_bytes,
                usage.logic_cells_k / spec.logic_cells_k,
            )
            assert u == pytest.approx(min(share, 1.0), rel=1e-12)
        assert util.max() == 1.0


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
