"""Unit tests for the runtime substrate: cluster, loadgen, node, sim,
metrics, trace and TCO."""

import gc
import weakref

import numpy as np
import pytest

from repro.runtime import (
    DEFAULT_POWER_CAP_W,
    SchedulingPolicy,
    SystemConfig,
    TCOModel,
    TCOParameters,
    UtilizationTrace,
    constant_arrivals,
    energy_proportionality,
    ideal_power_curve,
    max_throughput_under_qos,
    percentile_latency,
    poisson_arrivals,
    provision,
    setting,
    synthesize_google_trace,
    trace_arrivals,
    violation_ratio,
)
from repro.hardware import AMD_W9100, XILINX_7V3


class TestCluster:
    def test_setting_I_matches_table3(self):
        gpu = setting("I", "Homo-GPU")
        fpga = setting("I", "Homo-FPGA")
        heter = setting("I", "Heter-Poly")
        assert gpu.n_gpus == 2 and gpu.n_fpgas == 0
        assert fpga.n_fpgas == 10 and fpga.n_gpus == 0
        assert heter.n_gpus == 1 and heter.n_fpgas == 5

    def test_setting_II_and_III(self):
        assert setting("II", "Homo-FPGA").n_fpgas == 16
        assert setting("III", "Heter-Poly").n_fpgas == 4

    def test_power_caps_respected(self):
        # Table III's own device counts run within ~5% of the nominal
        # 500 W cap (Setting-III's 8 Arria-10s total 520 W in the paper).
        for number in ("I", "II", "III"):
            for name in ("Homo-FPGA", "Heter-Poly"):
                sys = setting(number, name)
                assert sys.peak_power_w <= DEFAULT_POWER_CAP_W * 1.05, (
                    number, name, sys.peak_power_w
                )

    def test_policies(self):
        assert setting("I", "Heter-Poly").policy == SchedulingPolicy.POLY
        assert setting("I", "Homo-GPU").policy == SchedulingPolicy.STATIC

    def test_unknown_setting_rejected(self):
        with pytest.raises(KeyError):
            setting("IV", "Homo-GPU")
        with pytest.raises(KeyError):
            setting("I", "Hybrid")

    def test_provision_respects_split(self):
        sys = provision(
            "x", AMD_W9100, XILINX_7V3, 500.0, 0.55, SchedulingPolicy.POLY
        )
        assert sys.n_gpus == 1 and sys.n_fpgas == 5
        assert sys.peak_power_w <= 500.0

    def test_provision_endpoints(self):
        pure_fpga = provision(
            "f", AMD_W9100, XILINX_7V3, 500.0, 0.0, SchedulingPolicy.STATIC
        )
        assert pure_fpga.n_gpus == 0 and pure_fpga.n_fpgas == 11

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig("e", None, 0, None, 0, SchedulingPolicy.STATIC)

    def test_device_inventory_ids_unique(self):
        sys = setting("I", "Heter-Poly")
        ids = [d for d, _ in sys.device_inventory()]
        assert len(ids) == len(set(ids)) == 6

    def test_capex_sums_prices(self):
        sys = setting("I", "Heter-Poly")
        assert sys.capex_usd == pytest.approx(4999 + 5 * 3200)


class TestLoadgen:
    def test_constant_interval(self):
        arr = constant_arrivals(100.0, 1000.0)
        assert len(arr) == 100
        gaps = np.diff(arr)
        assert np.allclose(gaps, 10.0)

    def test_poisson_rate(self):
        arr = poisson_arrivals(200.0, 60_000.0)
        assert len(arr) == pytest.approx(200 * 60, rel=0.1)
        assert all(t < 60_000 for t in arr)
        assert arr == sorted(arr)

    def test_zero_rate_empty(self):
        assert constant_arrivals(0.0, 1000.0) == []
        assert poisson_arrivals(0.0, 1000.0) == []

    def test_trace_arrivals_follow_utilization(self):
        arr = trace_arrivals([0.0, 1.0], 10_000.0, 100.0)
        first = [t for t in arr if t < 10_000]
        second = [t for t in arr if t >= 10_000]
        assert len(first) == 0
        assert len(second) > 50

    def test_invalid_durations(self):
        with pytest.raises(ValueError):
            constant_arrivals(10.0, 0.0)
        with pytest.raises(ValueError):
            poisson_arrivals(10.0, -5.0)


class TestMetrics:
    def test_percentile_nearest_rank(self):
        lats = list(range(1, 101))
        assert percentile_latency(lats, 99.0) == 99
        assert percentile_latency(lats, 50.0) == 50
        assert percentile_latency(lats, 100.0) == 100

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile_latency([], 99.0)
        with pytest.raises(ValueError):
            percentile_latency([1.0], 0.0)

    def test_violation_ratio(self):
        assert violation_ratio([100, 150, 250, 300], 200.0) == 0.5

    def test_ep_ideal_system_is_one(self):
        loads = [0.1 * i for i in range(11)]
        powers = [load * 300.0 for load in loads]
        assert energy_proportionality(loads, powers) == pytest.approx(1.0)

    def test_ep_decreases_with_idle_power(self):
        loads = [0.1 * i for i in range(11)]
        flat = [200.0 + load * 100.0 for load in loads]
        steep = [50.0 + load * 250.0 for load in loads]
        assert energy_proportionality(loads, steep) > energy_proportionality(
            loads, flat
        )

    def test_ep_at_most_one_for_concave_curves(self):
        loads = [0.0, 0.5, 1.0]
        powers = [100.0, 200.0, 300.0]
        assert energy_proportionality(loads, powers) <= 1.0

    def test_ideal_power_curve_linear(self):
        curve = ideal_power_curve([0.0, 0.5, 1.0], 400.0)
        assert curve.tolist() == [0.0, 200.0, 400.0]

    def test_max_throughput_under_qos(self):
        assert max_throughput_under_qos([10, 20, 30], [50, 180, 900], 200.0) == 20
        assert max_throughput_under_qos([10], [900], 200.0) == 0.0


class TestTrace:
    def test_synthetic_shape(self):
        t = synthesize_google_trace()
        assert len(t.utilization) == 288
        assert 0.2 < t.mean_utilization < 0.6

    def test_deterministic_by_seed(self):
        a = synthesize_google_trace(seed=7)
        b = synthesize_google_trace(seed=7)
        c = synthesize_google_trace(seed=8)
        assert a.utilization == b.utilization
        assert a.utilization != c.utilization

    def test_bounds_enforced(self):
        t = synthesize_google_trace(base=0.9, diurnal_amplitude=0.5)
        assert all(0.0 <= u <= 1.0 for u in t.utilization)

    def test_resample(self):
        t = synthesize_google_trace()
        coarse = t.resampled(4)
        assert len(coarse.utilization) == len(t.utilization) // 4
        assert coarse.interval_s == t.interval_s * 4

    def test_invalid_trace_rejected(self):
        with pytest.raises(ValueError):
            UtilizationTrace((), 300.0)
        with pytest.raises(ValueError):
            UtilizationTrace((1.5,), 300.0)


class TestTCO:
    def test_monthly_components_positive(self):
        model = TCOModel()
        sys = setting("I", "Heter-Poly")
        assert model.monthly_capex_usd(sys) > 0
        assert model.monthly_infrastructure_usd(sys) > 0
        assert model.monthly_energy_usd(150.0) > 0

    def test_energy_cost_scales_with_power(self):
        model = TCOModel()
        assert model.monthly_energy_usd(300.0) == pytest.approx(
            2 * model.monthly_energy_usd(150.0)
        )

    def test_cost_efficiency_ratio(self):
        model = TCOModel()
        sys = setting("I", "Homo-GPU")
        tco = model.monthly_tco_usd(sys, 150.0)
        assert model.cost_efficiency(sys, 60.0, 150.0) == pytest.approx(60.0 / tco)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TCOParameters(pue=0.9)
        with pytest.raises(ValueError):
            TCOModel().monthly_energy_usd(-1.0)


class TestNodeLifetime:
    def test_finished_node_freed_without_cycle_collector(self):
        """A device's latency lookup must not refer back to its node:
        dropping the result frees the node by reference counting alone,
        with the cyclic collector switched off."""
        from repro import apps as apps_mod
        from repro.runtime import run_simulation

        app = apps_mod.build("WT")
        system = setting("I", "Heter-Poly")
        spaces = app.explore(system.platforms)
        arrivals = poisson_arrivals(
            60.0, 1_000.0, rng=np.random.default_rng(1)
        )
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = run_simulation(system, app, spaces, arrivals, seed=1)
            node = weakref.ref(result.node)
            del result
            assert node() is None
        finally:
            if was_enabled:
                gc.enable()
