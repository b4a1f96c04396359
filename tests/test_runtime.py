"""Unit tests for the runtime substrate: cluster, loadgen, node, sim,
metrics, trace and TCO."""

import gc
import math
import weakref

import numpy as np
import pytest

from conftest import synthetic_point
from repro import apps as apps_mod
from repro.faults import FaultSchedule
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
from repro.hardware import AMD_W9100, XILINX_7V3, FPGAModel, GPUModel
from repro.hardware.specs import DeviceType
from repro.runtime.node import AcceleratorInstance, LeafNode
from repro.runtime.simulation import _power_timeline, run_simulation


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

    def test_finished_chaos_node_freed_without_cycle_collector(self):
        """The node holds its fault injector and failover planner, and
        neither holds the node strongly: a chaos run's node is freed by
        reference counting alone once its result is dropped."""
        app = apps_mod.build("ASR")
        system = setting("I", "Heter-Poly")
        spaces = app.explore(system.platforms)
        device_ids = [device_id for device_id, _ in system.device_inventory()]
        faults = FaultSchedule.from_mtbf(
            device_ids, 3_000.0, mtbf_ms=1_500.0, mttr_ms=600.0, seed=1,
            transient_rate_per_s=5.0, slowdown_prob=0.3,
        )
        arrivals = poisson_arrivals(
            30.0, 3_000.0, rng=np.random.default_rng(1)
        )
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = run_simulation(
                system, app, spaces, arrivals, seed=1, faults=faults
            )
            assert result.faults.retries > 0
            node = weakref.ref(result.node)
            del result
            assert node() is None
        finally:
            if was_enabled:
                gc.enable()


def scalar_power_timeline(node, duration_ms, bin_ms):
    """The power timeline as a scalar loop: each execution, in log
    order, adds its clipped overlap with every bin it covers; then each
    bin is charged idle power (Poly: the DVFS level its utilization
    picks, deep idle when unused; static: full clocks)."""
    n_bins = max(int(math.ceil(duration_ms / bin_ms)), 1)
    total = [0.0] * n_bins
    poly = node.system.policy == SchedulingPolicy.POLY
    for dev in node.devices:
        active = [0.0] * n_bins
        busy = [0.0] * n_bins
        for rec in dev.records:
            first = int(rec.start_ms // bin_ms)
            last = min(int(rec.end_ms // bin_ms), n_bins - 1)
            for b in range(first, last + 1):
                overlap = min(rec.end_ms, (b + 1) * bin_ms) - max(
                    rec.start_ms, b * bin_ms
                )
                if overlap > 0:
                    active[b] += rec.power_w * overlap
                    busy[b] += overlap
        dvfs = dev.dvfs
        for b in range(n_bins):
            used = min(busy[b], bin_ms)
            util = used / bin_ms
            if not poly:
                idle_w = dvfs.idle_power_w(1.0)
            elif util == 0.0:
                idle_w = dvfs.low_power_state_w()
            else:
                idle_w = dvfs.idle_power_w(dvfs.pick_level(util))
            total[b] += (active[b] + idle_w * (bin_ms - used)) / bin_ms
    return total


def check_logs(node):
    """Every device log of ``node`` holds six untracked scalars per
    execution, each execution draws its implementation's power at its
    batch size, and the log's three views read the same executions."""
    for dev in node.devices:
        log = dev.log
        assert len(log) % 6 == 0, dev.device_id
        assert {type(v) for v in log} <= {str, int, float}, dev.device_id
        for kernel, index, start, end, power, batch in zip(*[iter(log)] * 6):
            point = node.design_spaces[(kernel, dev.spec.name)][index]
            assert start <= end
            assert power == dev._latency_fn(kernel, point, batch)[1]
        records = dev.records
        assert [
            (r.kernel_name, r.point_index, r.start_ms, r.end_ms, r.power_w,
             r.batch)
            for r in records
        ] == list(zip(*[iter(log)] * 6))
        assert all(r.device_id == dev.device_id for r in records)
        starts, ends, powers = dev.record_columns()
        assert (starts, ends, powers) == (
            [r.start_ms for r in records],
            [r.end_ms for r in records],
            [r.power_w for r in records],
        )
        assert dev.busy_ms_total() == sum(
            r.end_ms - r.start_ms for r in records
        )


class TestNodeModelReads:
    def test_one_ladder_call_per_batched_gpu_point(self, monkeypatch):
        """The node reads batch-1 latency and power off the design
        point and FPGAs at batch 1 only: its only model calls are one
        ``estimate_batch`` per GPU design point it reads above batch 1,
        over the point's whole ladder."""
        app = apps_mod.build("ASR")
        system = setting("I", "Heter-Poly")
        spaces = app.explore(system.platforms)
        calls = []
        real = GPUModel.estimate_batch

        def spy(model, kernel, configs, batch=1):
            calls.append((kernel.name, tuple(configs), batch))
            return real(model, kernel, configs, batch)

        def no_fpga_call(*args, **kwargs):
            raise AssertionError("the node evaluated the FPGA model")

        monkeypatch.setattr(GPUModel, "estimate_batch", spy)
        monkeypatch.setattr(FPGAModel, "estimate_batch", no_fpga_call)
        arrivals = poisson_arrivals(60.0, 3_000.0, rng=np.random.default_rng(1))
        result = run_simulation(system, app, spaces, arrivals, seed=1)
        assert calls
        assert all(batch == LeafNode._LADDER for _, _, batch in calls)
        assert all(len(set(configs)) == 1 for _, configs, _ in calls)
        points = [(name, configs[0]) for name, configs, _ in calls]
        assert len(set(points)) == len(points) == len(result.node._ladders)


class TestExecutionLog:
    @pytest.fixture(scope="class")
    def asr(self):
        app = apps_mod.build("ASR")
        system = setting("I", "Heter-Poly")
        return app, system, app.explore(system.platforms)

    @pytest.mark.parametrize("system_name", ["Heter-Poly", "Homo-GPU"])
    def test_power_timeline_equals_scalar_loop(self, asr, system_name):
        """Hand-built logs over four 1 s bins: an execution spanning
        three bins, one ending past the window, one starting past it and
        a zero-duration (aborted) one, on a Poly and a static system."""
        app, _, spaces = asr
        system = setting("I", system_name)
        node = LeafNode(system, app, spaces)
        kernel = app.kernels[0].name
        entries = [
            (500.0, 2_500.0, 180.5),    # bins 0-2
            (3_500.0, 5_200.0, 40.25),  # ends past the window
            (4_500.0, 4_800.0, 75.0),   # starts past the window
            (1_200.0, 1_200.0, 90.0),   # aborted at its start
            (2_250.0, 2_999.5, 33.3),
        ]
        for i, dev in enumerate(node.devices[:3]):
            for start, end, power in entries[i:]:
                dev.log.extend((kernel, i, start, end, power + i, 1))
        got = _power_timeline(node, 4_000.0, 1_000.0)
        assert got.tolist() == scalar_power_timeline(node, 4_000.0, 1_000.0)

    def test_gpu_batch_joins_keep_one_flat_log(self):
        """Homo-GPU ASR, 80 rps for 4 s, seed 1: GPU batches grow by
        joins in the programs, and each log still reads as records."""
        app = apps_mod.build("ASR")
        system = setting("I", "Homo-GPU")
        spaces = app.explore(system.platforms)
        arrivals = poisson_arrivals(
            80.0, 4_000.0, rng=np.random.default_rng(1)
        )
        result = run_simulation(system, app, spaces, arrivals, seed=1)
        devices = result.node.devices
        assert max(r.batch for dev in devices for r in dev.records) > 1
        check_logs(result.node)
        assert result.power_bins_w.tolist() == scalar_power_timeline(
            result.node, result.arrival_span_ms, result.bin_ms
        )

    def test_fault_injected_run_keeps_one_flat_log(self, asr):
        app, system, spaces = asr
        device_ids = [device_id for device_id, _ in system.device_inventory()]
        faults = FaultSchedule.from_mtbf(
            device_ids, 4_000.0, mtbf_ms=1_500.0, mttr_ms=600.0, seed=2,
            transient_rate_per_s=5.0, slowdown_prob=0.3,
        )
        arrivals = poisson_arrivals(
            40.0, 4_000.0, rng=np.random.default_rng(2)
        )
        result = run_simulation(
            system, app, spaces, arrivals, seed=2, faults=faults
        )
        assert result.faults.retries > 0
        check_logs(result.node)

    def test_fleet_replay_keeps_one_flat_log(self, asr):
        from golden_cases import run_flash_crowd_fleet

        result = run_flash_crowd_fleet(asr)
        assert len(result.nodes) > 1
        for node in result.nodes:
            check_logs(node.leaf)

    @staticmethod
    def _gpu():
        """A GPU whose batch-``b`` latency is ``10 * b`` ms at
        ``100 + b`` W."""
        return AcceleratorInstance(
            "gpu0", AMD_W9100, lambda kernel, point, b: (10.0 * b, 100.0 + b)
        )

    def test_abort_cuts_a_joined_gpu_batch(self):
        gpu = self._gpu()
        a = synthetic_point("A", AMD_W9100.name, DeviceType.GPU, 10.0, 1.0)
        b = synthetic_point("B", AMD_W9100.name, DeviceType.GPU, 10.0, 1.0)
        assert gpu.dispatch("A", a, 0.0, 5.0, 1.0) == (5.0, 15.0)
        assert gpu.dispatch("B", b, 0.0, 5.0, 1.0) == (15.0, 25.0)
        # A later request joins A's batch: its end, power and size move.
        assert gpu.dispatch("A", a, 2.0, 5.0, 1.0) == (5.0, 25.0)
        assert gpu.log == [
            "A", 0, 5.0, 25.0, 102.0, 2,
            "B", 0, 15.0, 25.0, 101.0, 1,
        ]
        gpu.abort_execution("A", 0, 25.0, 12.0)
        assert gpu.log == [
            "A", 0, 5.0, 12.0, 102.0, 2,
            "B", 0, 15.0, 25.0, 101.0, 1,
        ]
        assert ("A", 0) not in gpu._open and ("B", 0) in gpu._open
        assert gpu.horizon_ms == 25.0
        # A fault before the start leaves a zero-duration execution.
        gpu.abort_execution("B", 0, 25.0, 3.0)
        assert gpu.log[6:] == ["B", 0, 15.0, 15.0, 101.0, 1]
        assert gpu.horizon_ms == 15.0

    def test_mark_failed_cuts_only_work_past_the_crash(self):
        gpu = self._gpu()
        a = synthetic_point("A", AMD_W9100.name, DeviceType.GPU, 10.0, 1.0)
        b = synthetic_point("B", AMD_W9100.name, DeviceType.GPU, 10.0, 1.0)
        gpu.dispatch("A", a, 0.0, 0.0, 1.0)    # 0 -> 10
        gpu.dispatch("B", b, 0.0, 0.0, 1.0)    # 10 -> 20
        gpu.dispatch("A", a, 15.0, 0.0, 1.0)   # 20 -> 30
        gpu.mark_failed(12.0)
        assert gpu.log == [
            "A", 0, 0.0, 10.0, 101.0, 1,
            "B", 0, 10.0, 12.0, 101.0, 1,
            "A", 0, 20.0, 20.0, 101.0, 1,
        ]
        assert gpu._open == {}
        assert gpu.horizon_ms == 12.0
