"""Integration tests: full pipeline from app definition to simulation."""

import pytest

from repro import apps, runtime
from repro.runtime.node import LeafNode
from repro.scheduler import DeviceSlot, PolyScheduler


@pytest.fixture(scope="module")
def asr_setup():
    app = apps.build("ASR")
    systems = {
        name: runtime.setting("I", name)
        for name in ("Homo-GPU", "Homo-FPGA", "Heter-Poly")
    }
    spaces = {
        name: app.explore(system.platforms) for name, system in systems.items()
    }
    return app, systems, spaces


class TestEndToEnd:
    def test_low_load_meets_qos_everywhere(self, asr_setup):
        app, systems, spaces = asr_setup
        for name, system in systems.items():
            arr = runtime.poisson_arrivals(8.0, 5000.0)
            result = runtime.run_simulation(system, app, spaces[name], arr)
            assert result.p99_ms <= app.qos_ms, name

    def test_overload_explodes_latency(self, asr_setup):
        app, systems, spaces = asr_setup
        system = systems["Homo-GPU"]
        arr = runtime.poisson_arrivals(200.0, 5000.0)
        result = runtime.run_simulation(system, app, spaces["Homo-GPU"], arr)
        assert result.p99_ms > 3 * app.qos_ms

    def test_request_conservation(self, asr_setup):
        app, systems, spaces = asr_setup
        arr = runtime.poisson_arrivals(20.0, 4000.0)
        result = runtime.run_simulation(
            systems["Heter-Poly"], app, spaces["Heter-Poly"], arr
        )
        assert len(result.requests) == len(arr)
        for r in result.requests:
            assert r.completion_ms >= r.arrival_ms

    def test_poly_low_load_power_below_baselines(self, asr_setup):
        app, systems, spaces = asr_setup
        powers = {}
        for name, system in systems.items():
            arr = runtime.poisson_arrivals(8.0, 5000.0)
            result = runtime.run_simulation(system, app, spaces[name], arr)
            powers[name] = result.avg_power_w
        assert powers["Heter-Poly"] < powers["Homo-GPU"]
        assert powers["Heter-Poly"] < powers["Homo-FPGA"]

    def test_determinism_per_seed(self, asr_setup):
        app, systems, spaces = asr_setup
        arr = runtime.poisson_arrivals(20.0, 3000.0)
        a = runtime.run_simulation(
            systems["Heter-Poly"], app, spaces["Heter-Poly"], arr, seed=3
        )
        b = runtime.run_simulation(
            systems["Heter-Poly"], app, spaces["Heter-Poly"], arr, seed=3
        )
        assert a.p99_ms == b.p99_ms
        assert a.avg_power_w == b.avg_power_w

    def test_unsorted_arrivals_match_sorted(self, asr_setup):
        """Regression: the power window and run duration derive from
        the *sorted* stream, so caller ordering must not matter."""
        import random

        app, systems, spaces = asr_setup
        arr = runtime.poisson_arrivals(20.0, 3000.0)
        shuffled = list(arr)
        random.Random(42).shuffle(shuffled)
        a = runtime.run_simulation(
            systems["Heter-Poly"], app, spaces["Heter-Poly"], arr, seed=3
        )
        b = runtime.run_simulation(
            systems["Heter-Poly"], app, spaces["Heter-Poly"], shuffled, seed=3
        )
        assert [r.latency_ms for r in a.requests] == [
            r.latency_ms for r in b.requests
        ]
        assert a.duration_ms == b.duration_ms
        assert a.arrival_span_ms == b.arrival_span_ms
        assert (a.power_bins_w == b.power_bins_w).all()

    def test_power_bins_cover_offered_load_window(self, asr_setup):
        app, systems, spaces = asr_setup
        arr = runtime.poisson_arrivals(15.0, 4000.0)
        result = runtime.run_simulation(
            systems["Heter-Poly"], app, spaces["Heter-Poly"], arr, bin_ms=500.0
        )
        import math

        # Power is accounted over the arrival span (not the overload
        # drain); latency statistics still run to the last completion.
        assert len(result.power_bins_w) == math.ceil(max(arr) / 500.0)
        assert result.duration_ms >= max(arr)
        assert all(p > 0 for p in result.power_bins_w)


class TestLeafNodeMechanics:
    def test_gpu_batching_under_queueing(self, asr_setup):
        app, systems, spaces = asr_setup
        node = LeafNode(systems["Homo-GPU"], app, spaces["Homo-GPU"], seed=1)
        for t in runtime.poisson_arrivals(60.0, 4000.0):
            node.submit(t)
        batches = [
            r.batch for d in node.devices for r in d.records if r.batch > 1
        ]
        assert batches, "no GPU batching occurred under load"
        from repro.runtime.node import MAX_GPU_BATCH

        assert max(batches) <= MAX_GPU_BATCH

    def test_fpga_implementations_pin_to_devices(self, asr_setup):
        app, systems, spaces = asr_setup
        node = LeafNode(systems["Homo-FPGA"], app, spaces["Homo-FPGA"], seed=1)
        for t in runtime.poisson_arrivals(30.0, 4000.0):
            node.submit(t)
        # Each FPGA ends up serving few distinct implementations —
        # reconfiguration cost drives affinity.
        for dev in node.devices:
            impls = {(r.kernel_name, r.point_index) for r in dev.records}
            if dev.records:
                assert len(impls) <= 2

    def test_heter_uses_both_families(self, asr_setup):
        app, systems, spaces = asr_setup
        node = LeafNode(systems["Heter-Poly"], app, spaces["Heter-Poly"], seed=1)
        for t in runtime.poisson_arrivals(40.0, 4000.0):
            node.submit(t)
        used = {d.device_id[:3] for d in node.devices if d.records}
        assert used == {"gpu", "fpg"}

    def test_monitor_sees_traffic(self, asr_setup):
        app, systems, spaces = asr_setup
        node = LeafNode(systems["Heter-Poly"], app, spaces["Heter-Poly"], seed=1)
        arrivals = runtime.poisson_arrivals(20.0, 3000.0)
        for t in arrivals:
            node.submit(t)
        assert node.monitor.tail_latency_ms() is not None
        assert node.monitor.arrival_rate_rps(arrivals[-1]) > 0

    def test_capacity_estimate_positive(self, asr_setup):
        app, systems, spaces = asr_setup
        node = LeafNode(systems["Heter-Poly"], app, spaces["Heter-Poly"], seed=1)
        node.submit(0.0)
        assert node.capacity_estimate_rps() > 0


class TestSchedulerIntegration:
    def test_two_step_schedule_on_real_spaces(self, asr_setup):
        app, systems, spaces = asr_setup
        system = systems["Heter-Poly"]
        devices = [
            DeviceSlot(device_id, spec.name, spec.device_type)
            for device_id, spec in system.device_inventory()
        ]
        scheduler = PolyScheduler(spaces["Heter-Poly"], app.qos_ms)
        schedule, steps = scheduler.schedule(app.graph, devices)
        assert schedule.makespan_ms <= app.qos_ms
        assert len(schedule) == 4

    def test_frontend_app_simulates(self):
        from repro.apps.base import Application
        from repro.frontend import compile_source
        from repro.hardware.specs import DeviceType

        src = """
        kernel A {
            tensor x (65536) fp32
            pattern m = map(x) func=mul ops=32
        }
        kernel B {
            tensor y (65536) fp32
            pattern r = reduce(y) func=add ops=2
        }
        app Tiny qos=200 {
            use A
            use B
            edge A -> B
        }
        """
        _, graphs = compile_source(src)
        graph, qos = graphs["Tiny"]
        app = Application(
            name="Tiny",
            full_name="frontend-built",
            graph=graph,
            design_targets={
                "A": {DeviceType.GPU: 8, DeviceType.FPGA: 8},
                "B": {DeviceType.GPU: 8, DeviceType.FPGA: 8},
            },
            qos_ms=qos,
        )
        system = runtime.setting("I", "Heter-Poly")
        spaces = app.explore(system.platforms)
        arr = runtime.poisson_arrivals(20.0, 2000.0)
        result = runtime.run_simulation(system, app, spaces, arr)
        assert result.p99_ms > 0


class TestLintIntegration:
    def test_all_bundled_apps_lint_clean(self):
        from repro.lint import LintContext, run_lint

        system = runtime.setting("I", "Heter-Poly")
        for name in sorted(apps.APP_BUILDERS):
            app = apps.build(name)
            report = run_lint(
                app, LintContext(specs=tuple(system.platforms))
            )
            assert report.ok, f"{name}: {report.render()}"

    def test_asr_passes_scheduler_admission(self, asr_setup):
        app, systems, spaces = asr_setup
        system = systems["Heter-Poly"]
        devices = [
            DeviceSlot(device_id, spec.name, spec.device_type)
            for device_id, spec in system.device_inventory()
        ]
        scheduler = PolyScheduler(spaces["Heter-Poly"], app.qos_ms)
        assert scheduler.admission_check(app.graph, devices).ok
