"""Tests for the fault-injection and failover subsystem (repro.faults)."""

import math

import numpy as np
import pytest

from repro import runtime
from repro.experiments import harness
from repro.faults import (
    DeviceHealth,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from repro.faults.policy import backoff_ms
from repro.lint import LintContext, run_lint
from repro.runtime import availability, mean_recovery_ms
from repro.runtime.node import LeafNode, RequestRecord
from repro.runtime.simulation import SimulationResult

from conftest import synthetic_space
from repro.hardware import AMD_W9100, XILINX_7V3
from repro.hardware.specs import DeviceType
from repro.scheduler import DeviceSlot
from repro.scheduler.monitor import WINDOW


@pytest.fixture(scope="module")
def heter_setup():
    """ASR on the Setting-I Heter-Poly node, DSE shared with the
    experiments harness cache."""
    app = harness.get_app("ASR")
    system = runtime.setting("I", "Heter-Poly")
    spaces = harness.spaces_for(app, system)
    return app, system, spaces


def _arrivals(rps, duration_ms, seed=11):
    return runtime.poisson_arrivals(
        rps, duration_ms, rng=np.random.default_rng(seed)
    )


class TestFaultEvents:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, FaultKind.DEVICE_CRASH, "gpu0")
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.DEVICE_CRASH, "")
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.SLOWDOWN, "gpu0", magnitude=0.5)

    def test_schedule_sorts_events(self):
        sched = FaultSchedule(
            (
                FaultEvent(500.0, FaultKind.RECOVERY, "a"),
                FaultEvent(100.0, FaultKind.DEVICE_CRASH, "a"),
            )
        )
        assert [e.time_ms for e in sched] == [100.0, 500.0]

    def test_single_crash_helper(self):
        sched = FaultSchedule.single_crash("fpga0", at_ms=1000.0, recover_at_ms=3000.0)
        assert len(sched) == 2
        assert sched.down_intervals("fpga0") == [(1000.0, 3000.0)]
        assert not sched.permanently_failed("fpga0")

    def test_unrecovered_crash_is_permanent(self):
        sched = FaultSchedule.single_crash("fpga0", at_ms=1000.0)
        lo, hi = sched.down_intervals("fpga0")[0]
        assert lo == 1000.0 and math.isinf(hi)
        assert sched.permanently_failed("fpga0")

    def test_nested_crashes_collapse(self):
        sched = FaultSchedule(
            (
                FaultEvent(100.0, FaultKind.DEVICE_CRASH, "a"),
                FaultEvent(200.0, FaultKind.DEVICE_CRASH, "a"),
                FaultEvent(300.0, FaultKind.RECOVERY, "a"),
            )
        )
        assert sched.down_intervals("a") == [(100.0, 300.0)]

    def test_first_crash_overlap(self):
        sched = FaultSchedule.single_crash("a", at_ms=100.0, recover_at_ms=200.0)
        # Execution fully before the outage: unaffected.
        assert sched.first_crash_overlap("a", 0.0, 90.0) is None
        # Straddles the crash: fails at the crash instant.
        assert sched.first_crash_overlap("a", 50.0, 150.0) == 100.0
        # Dispatched onto the dead device: fails at its own start.
        assert sched.first_crash_overlap("a", 120.0, 180.0) == 120.0
        # After the recovery: unaffected.
        assert sched.first_crash_overlap("a", 250.0, 300.0) is None

    def test_from_mtbf_deterministic(self):
        a = FaultSchedule.from_mtbf(["d0", "d1"], 10_000.0, 2_000.0, 500.0, seed=3)
        b = FaultSchedule.from_mtbf(["d0", "d1"], 10_000.0, 2_000.0, 500.0, seed=3)
        c = FaultSchedule.from_mtbf(["d0", "d1"], 10_000.0, 2_000.0, 500.0, seed=4)
        assert list(a) == list(b)
        assert list(a) != list(c)
        assert all(e.time_ms <= 10_000.0 for e in a)

    def test_from_mtbf_alternates_crash_and_recovery(self):
        sched = FaultSchedule.from_mtbf(["d0"], 50_000.0, 2_000.0, 500.0, seed=0)
        kinds = [e.kind for e in sched if e.device_id == "d0"]
        assert kinds, "expected at least one fault at this MTBF"
        assert kinds[0] == FaultKind.DEVICE_CRASH
        for first, second in zip(kinds, kinds[1:]):
            assert first != second  # strict crash/recovery alternation


def _scan_down_intervals(schedule, device_id):
    """Outage windows by a scan of the whole event list (the reference
    for the per-device index)."""
    out, open_at = [], None
    for e in schedule.events:
        if e.device_id != device_id:
            continue
        if e.kind == FaultKind.DEVICE_CRASH and open_at is None:
            open_at = e.time_ms
        elif e.kind == FaultKind.RECOVERY and open_at is not None:
            out.append((open_at, e.time_ms))
            open_at = None
    if open_at is not None:
        out.append((open_at, math.inf))
    return out


def _scan_execution_fault(schedule, consumed, device_id, start_ms, end_ms):
    """``FaultInjector.execution_fault`` by whole-schedule scans."""
    crash = next(
        (
            max(lo, start_ms)
            for lo, hi in _scan_down_intervals(schedule, device_id)
            if lo <= end_ms and hi > start_ms
        ),
        None,
    )
    transient = next(
        (
            (i, e.time_ms)
            for i, e in enumerate(schedule.events)
            if e.device_id == device_id
            and e.kind == FaultKind.TRANSIENT
            and i not in consumed
            and start_ms < e.time_ms <= end_ms
        ),
        None,
    )
    if crash is not None and (transient is None or crash <= transient[1]):
        return crash, FaultKind.DEVICE_CRASH
    if transient is not None:
        consumed.add(transient[0])
        return transient[1], FaultKind.TRANSIENT
    return None


class TestScheduleIndex:
    """The per-device index answers exactly what whole-schedule scans
    answer, on random MTBF schedules with transients and slowdowns
    plus an unrecovered crash (an outage to ``+inf``)."""

    DEVICES = ("fpga0", "fpga1", "gpu0")

    def _schedules(self):
        for seed in range(12):
            base = FaultSchedule.from_mtbf(
                self.DEVICES, 5_000.0, 800.0, 400.0, seed=seed,
                transient_rate_per_s=4.0, slowdown_prob=0.3,
            )
            last = max((e.time_ms for e in base), default=0.0)
            yield FaultSchedule(
                list(base)
                + [FaultEvent(last + 10.0, FaultKind.DEVICE_CRASH, "gpu0")]
            )

    def _windows(self, schedule, rng):
        times = [e.time_ms for e in schedule] + [0.0, 6_000.0]
        for _ in range(300):
            a, b = (
                float(rng.choice(times)) if rng.random() < 0.5
                else float(rng.uniform(0.0, 6_000.0))
                for _ in range(2)
            )
            yield min(a, b), max(a, b)

    def test_queries_equal_scans(self):
        rng = np.random.default_rng(0)
        for schedule in self._schedules():
            assert math.isinf(schedule.down_intervals("gpu0")[-1][1])
            assert schedule.device_ids() == sorted(
                {e.device_id for e in schedule.events}
            )
            for device_id in self.DEVICES + ("absent",):
                assert schedule.down_intervals(device_id) == (
                    _scan_down_intervals(schedule, device_id)
                )
                transients = [
                    (i, e) for i, e in enumerate(schedule.events)
                    if e.device_id == device_id
                    and e.kind == FaultKind.TRANSIENT
                ]
                assert schedule.transients_within(
                    device_id, -math.inf, math.inf
                ) == transients
                for start, end in self._windows(schedule, rng):
                    assert schedule.first_crash_overlap(
                        device_id, start, end
                    ) == next(
                        (
                            max(lo, start)
                            for lo, hi in _scan_down_intervals(
                                schedule, device_id
                            )
                            if lo <= end and hi > start
                        ),
                        None,
                    )
                    assert schedule.transients_within(
                        device_id, start, end
                    ) == [(i, e) for i, e in transients
                          if start < e.time_ms <= end]

    def test_execution_faults_equal_scans(self):
        """Consuming transients through the injector follows the scan
        reference step for step."""
        rng = np.random.default_rng(1)
        for schedule in self._schedules():
            injector = FaultInjector(schedule)
            consumed: set = set()
            for start, end in self._windows(schedule, rng):
                device_id = self.DEVICES[int(rng.integers(len(self.DEVICES)))]
                device = type("Device", (), {"device_id": device_id})()
                assert injector.execution_fault(device, start, end) == (
                    _scan_execution_fault(
                        schedule, consumed, device_id, start, end
                    )
                )
            assert consumed


class TestRetryPolicy:
    def test_backoff_caps(self):
        assert backoff_ms(0) == 5.0
        assert backoff_ms(3) == 40.0
        assert backoff_ms(10) == 80.0


class TestInjectorWiring:
    def test_unknown_device_rejected_at_bind(self, heter_setup):
        app, system, spaces = heter_setup
        node = LeafNode(system, app, spaces)
        injector = FaultInjector(FaultSchedule.single_crash("nope", at_ms=1.0))
        with pytest.raises(ValueError, match="unknown devices"):
            injector.bind(node)

    def test_double_bind_rejected(self, heter_setup):
        app, system, spaces = heter_setup
        injector = FaultInjector(FaultSchedule.single_crash("fpga0", at_ms=1.0))
        node = LeafNode(system, app, spaces)
        injector.bind(node)
        # One injector drives one node, and one node takes one injector.
        with pytest.raises(RuntimeError):
            injector.bind(LeafNode(system, app, spaces))
        second = FaultInjector(FaultSchedule.single_crash("fpga1", at_ms=1.0))
        with pytest.raises(RuntimeError):
            node.attach_injector(second)

    def test_advance_applies_health_transitions(self, heter_setup):
        app, system, spaces = heter_setup
        node = LeafNode(system, app, spaces)
        sched = FaultSchedule(
            (
                FaultEvent(10.0, FaultKind.SLOWDOWN, "fpga0", magnitude=2.0),
                FaultEvent(20.0, FaultKind.DEVICE_CRASH, "fpga1"),
                FaultEvent(30.0, FaultKind.RECOVERY, "fpga1"),
            )
        )
        injector = FaultInjector(sched)
        injector.bind(node)
        by_id = {d.device_id: d for d in node.devices}
        injector.advance(15.0)
        assert by_id["fpga0"].health == DeviceHealth.DEGRADED
        assert by_id["fpga0"].slowdown == 2.0
        injector.advance(25.0)
        assert by_id["fpga1"].health == DeviceHealth.FAILED
        assert not by_id["fpga1"].is_schedulable or not by_id["fpga1"].failure_detected
        injector.advance(35.0)
        assert by_id["fpga1"].health == DeviceHealth.HEALTHY
        assert by_id["fpga0"].health == DeviceHealth.DEGRADED  # still throttled

    def test_transient_consumed_once(self, heter_setup):
        app, system, spaces = heter_setup
        node = LeafNode(system, app, spaces)
        sched = FaultSchedule((FaultEvent(100.0, FaultKind.TRANSIENT, "gpu0"),))
        injector = FaultInjector(sched)
        injector.bind(node)
        gpu = next(d for d in node.devices if d.device_id == "gpu0")
        first = injector.execution_fault(gpu, 50.0, 150.0)
        assert first == (100.0, FaultKind.TRANSIENT)
        assert injector.execution_fault(gpu, 50.0, 150.0) is None


class TestChaosIntegration:
    def test_single_fpga_crash_availability(self, heter_setup):
        """Acceptance: one FPGA dying mid-run on Heter-Poly at moderate
        load completes via failover with >= 99% availability and a
        reported recovery time."""
        app, system, spaces = heter_setup
        chaos = FaultSchedule.single_crash("fpga0", at_ms=4_000.0)
        result = runtime.run_simulation(
            system, app, spaces, _arrivals(30.0, 8_000.0), faults=chaos
        )
        assert result.availability >= 0.99
        report = result.faults
        assert len(report.recoveries) == 1
        rec = report.recoveries[0]
        assert rec.device_id == "fpga0"
        assert rec.failed_ms == 4_000.0
        assert rec.recovery_ms > 0.0
        assert report.mean_recovery_ms == pytest.approx(rec.recovery_ms)
        assert result.p99_ms <= 3 * app.qos_ms  # failover, not meltdown

    def test_no_dispatch_to_dead_device_after_detection(self, heter_setup):
        app, system, spaces = heter_setup
        node = LeafNode(system, app, spaces)
        chaos = FaultSchedule.single_crash(
            "fpga0", at_ms=3_000.0, recover_at_ms=6_000.0
        )
        injector = FaultInjector(chaos)
        injector.bind(node)
        for t in _arrivals(30.0, 8_000.0):
            node.submit(t)
        (rec,) = injector.report.recoveries
        fpga0 = next(d for d in node.devices if d.device_id == "fpga0")
        for r in fpga0.records:
            alive = r.end_ms <= 3_000.0 + 1e-9 or r.start_ms >= 6_000.0 - 1e-9
            aborted = r.end_ms == r.start_ms
            assert alive or aborted, (r.start_ms, r.end_ms)
            # Nothing is even *reserved* on the quarantined device
            # between detection and recovery.
            if not aborted:
                assert not (rec.detected_ms < r.start_ms < 6_000.0)

    def test_deterministic_chaos(self, heter_setup):
        app, system, spaces = heter_setup
        arrivals = _arrivals(25.0, 5_000.0)
        chaos = FaultSchedule.single_crash("fpga1", at_ms=2_000.0)
        a = runtime.run_simulation(system, app, spaces, arrivals, faults=chaos)
        b = runtime.run_simulation(system, app, spaces, arrivals, faults=chaos)
        assert [r.latency_ms for r in a.requests] == [
            r.latency_ms for r in b.requests
        ]
        assert a.faults.summary() == b.faults.summary()

    def test_empty_schedule_bit_identical_to_no_faults(self, heter_setup):
        """The injection machinery must be invisible when no fault
        fires: same latencies, same power bins, bit for bit."""
        app, system, spaces = heter_setup
        arrivals = _arrivals(30.0, 6_000.0)
        plain = runtime.run_simulation(system, app, spaces, arrivals)
        chaos = runtime.run_simulation(
            system, app, spaces, arrivals, faults=FaultSchedule(())
        )
        assert [r.latency_ms for r in plain.requests] == [
            r.latency_ms for r in chaos.requests
        ]
        assert np.array_equal(plain.power_bins_w, chaos.power_bins_w)
        assert chaos.availability == 1.0
        assert chaos.faults.retries == 0 and not chaos.faults.recoveries

    def test_slowdown_stretches_latency(self, heter_setup):
        app, system, spaces = heter_setup
        arrivals = _arrivals(20.0, 5_000.0)
        throttle = FaultSchedule(
            tuple(
                FaultEvent(0.0, FaultKind.SLOWDOWN, f"fpga{i}", magnitude=4.0)
                for i in range(5)
            )
            + (FaultEvent(0.0, FaultKind.SLOWDOWN, "gpu0", magnitude=4.0),)
        )
        base = runtime.run_simulation(system, app, spaces, arrivals)
        slow = runtime.run_simulation(
            system, app, spaces, arrivals, faults=throttle
        )
        assert slow.mean_latency_ms > base.mean_latency_ms

    def test_recovered_device_rejoins(self, heter_setup):
        app, system, spaces = heter_setup
        node = LeafNode(system, app, spaces)
        chaos = FaultSchedule.single_crash(
            "fpga0", at_ms=2_000.0, recover_at_ms=4_000.0
        )
        FaultInjector(chaos).bind(node)
        for t in _arrivals(30.0, 8_000.0):
            node.submit(t)
        fpga0 = next(d for d in node.devices if d.device_id == "fpga0")
        assert fpga0.health == DeviceHealth.HEALTHY
        assert any(r.start_ms >= 4_000.0 and r.end_ms > r.start_ms
                   for r in fpga0.records), "recovered device never reused"


class TestGracefulDegradation:
    def test_blackout_sheds_low_priority_first(self, heter_setup):
        """All five FPGAs die under heavy load: the planner sheds the
        lowest-priority requests so the GPU can serve the rest."""
        app, system, spaces = heter_setup
        blackout = FaultSchedule(
            tuple(
                FaultEvent(2_000.0, FaultKind.DEVICE_CRASH, f"fpga{i}")
                for i in range(5)
            )
        )
        arrivals = _arrivals(80.0, 6_000.0, seed=5)
        priorities = list(np.random.default_rng(9).uniform(size=len(arrivals)))
        result = runtime.run_simulation(
            system, app, spaces, arrivals,
            faults=blackout, priorities=priorities,
        )
        report = result.faults
        assert report.shed > 0
        dropped = [
            p for r, p in zip(result.requests, priorities) if r.dropped
        ]
        served = [
            p for r, p in zip(result.requests, priorities) if r.served
        ]
        assert dropped and served
        assert max(dropped) < 0.95  # never sheds above MAX_SHED
        assert np.mean(dropped) < np.mean(served)

    def test_default_priority_never_shed(self, heter_setup):
        app, system, spaces = heter_setup
        blackout = FaultSchedule(
            tuple(
                FaultEvent(2_000.0, FaultKind.DEVICE_CRASH, f"fpga{i}")
                for i in range(5)
            )
        )
        result = runtime.run_simulation(
            system, app, spaces, _arrivals(80.0, 5_000.0, seed=5),
            faults=blackout,
        )
        assert result.faults.shed == 0  # priority defaults to 1.0
        assert not any(r.dropped for r in result.requests)

    def test_shed_requests_record_no_latency(self, heter_setup):
        """Shedding does not poison the monitor's tail window: it holds
        the latencies of the latest served and abandoned requests, and
        of no shed one."""
        app, system, spaces = heter_setup
        blackout = FaultSchedule(
            tuple(
                FaultEvent(1_000.0, FaultKind.DEVICE_CRASH, f"fpga{i}")
                for i in range(5)
            )
        )
        arrivals = _arrivals(80.0, 4_000.0, seed=5)
        priorities = list(np.random.default_rng(9).uniform(size=len(arrivals)))
        result = runtime.run_simulation(
            system, app, spaces, arrivals,
            faults=blackout, priorities=priorities,
        )
        requests = result.requests
        window = [r.latency_ms for r in requests if not r.dropped][-WINDOW:]
        assert any(r.dropped for r in requests[-len(window):])
        assert list(result.node.monitor._latencies) == window


class TestResilienceMetrics:
    def test_availability(self):
        assert availability(99, 100) == pytest.approx(0.99)
        assert math.isnan(availability(0, 0))
        with pytest.raises(ValueError):
            availability(5, 3)
        with pytest.raises(ValueError):
            availability(-1, 3)

    def test_mean_recovery(self):
        assert mean_recovery_ms([50.0, 150.0]) == pytest.approx(100.0)
        assert math.isnan(mean_recovery_ms([]))
        with pytest.raises(ValueError):
            mean_recovery_ms([-1.0])

    def test_mean_recovery_rejects_non_finite(self):
        # A crash with no matching recovery must be excluded by the
        # caller, not smuggled in as inf/nan (which would poison the
        # mean silently).
        with pytest.raises(ValueError, match="finite"):
            mean_recovery_ms([50.0, math.inf])
        with pytest.raises(ValueError, match="finite"):
            mean_recovery_ms([math.nan])

    def test_mean_recovery_zero_durations_are_legal(self):
        # Instant failover (detection and replan in the same tick) is a
        # valid episode, distinct from "no episodes" (nan).
        assert mean_recovery_ms([0.0, 0.0]) == 0.0

    def test_availability_empty_vs_zero_is_distinct(self):
        # 0 completed of N offered is a real (terrible) availability;
        # only 0-of-0 is undefined.
        assert availability(0, 10) == 0.0
        assert math.isnan(availability(0, 0))


class TestSimulationEdgeCases:
    def _result(self, warmup_ms):
        return SimulationResult(
            system="x",
            app="y",
            duration_ms=100.0,
            requests=[RequestRecord(0.0, 50.0)],
            power_bins_w=np.array([100.0]),
            bin_ms=100.0,
            warmup_ms=warmup_ms,
        )

    def test_mean_latency_nan_when_warmup_excludes_all(self):
        r = self._result(warmup_ms=1_000.0)
        assert r.latencies_ms() == []
        assert math.isnan(r.mean_latency_ms)

    def test_avg_power_nan_when_warmup_excludes_all_bins(self):
        r = self._result(warmup_ms=1_000.0)
        assert math.isnan(r.avg_power_w)

    def test_normal_window_unaffected(self):
        r = self._result(warmup_ms=0.0)
        assert r.mean_latency_ms == pytest.approx(50.0)
        assert r.avg_power_w == pytest.approx(100.0)

    def test_availability_excludes_dropped_and_failed(self):
        r = SimulationResult(
            system="x",
            app="y",
            duration_ms=100.0,
            requests=[
                RequestRecord(0.0, 50.0),
                RequestRecord(1.0, 1.0, dropped=True),
                RequestRecord(2.0, 90.0, failed=True),
            ],
            power_bins_w=np.array([100.0]),
            bin_ms=100.0,
        )
        assert r.availability == pytest.approx(1.0 / 3.0)
        assert r.latencies_ms() == [50.0]


def _fault_lint_ctx():
    spaces = {
        ("K", AMD_W9100.name): synthetic_space(
            "K", AMD_W9100.name, DeviceType.GPU, [(10.0, 50.0)]
        ),
        ("K", XILINX_7V3.name): synthetic_space(
            "K", XILINX_7V3.name, DeviceType.FPGA, [(20.0, 20.0)]
        ),
        ("F", XILINX_7V3.name): synthetic_space(
            "F", XILINX_7V3.name, DeviceType.FPGA, [(15.0, 20.0)]
        ),
    }
    devices = (
        DeviceSlot("gpu0", AMD_W9100.name, DeviceType.GPU),
        DeviceSlot("fpga0", XILINX_7V3.name, DeviceType.FPGA),
        DeviceSlot("fpga1", XILINX_7V3.name, DeviceType.FPGA),
    )
    return LintContext(design_spaces=spaces, devices=devices, qos_ms=200.0)


class TestFaultLintRules:
    def test_rt004_fires_when_only_family_wiped(self):
        ctx = _fault_lint_ctx()
        sched = FaultSchedule(
            (
                FaultEvent(100.0, FaultKind.DEVICE_CRASH, "fpga0"),
                FaultEvent(100.0, FaultKind.DEVICE_CRASH, "fpga1"),
            )
        )
        report = run_lint(sched, ctx)
        assert not report.ok
        assert [d.rule for d in report.errors] == ["RT004"]
        assert "'F'" in report.errors[0].message  # kernel K survives on GPU

    def test_rt004_silent_with_survivor_or_recovery(self):
        ctx = _fault_lint_ctx()
        one = FaultSchedule.single_crash("fpga0", at_ms=100.0)
        assert run_lint(one, ctx).ok
        both_but_recovering = FaultSchedule(
            (
                FaultEvent(100.0, FaultKind.DEVICE_CRASH, "fpga0"),
                FaultEvent(100.0, FaultKind.DEVICE_CRASH, "fpga1"),
                FaultEvent(500.0, FaultKind.RECOVERY, "fpga1"),
            )
        )
        assert run_lint(both_but_recovering, ctx).ok


class TestFaultsExperiment:
    def test_sweep_smoke(self, heter_setup):
        from repro.experiments import faults as faults_exp

        data = faults_exp.run(
            mtbf_grid_ms=(5_000.0,), rps=20.0, duration_ms=4_000.0
        )
        rows = data["ASR"]
        assert len(rows) == 2  # baseline + one MTBF point
        assert math.isinf(rows[0]["mtbf_ms"])
        assert rows[0]["availability"] == pytest.approx(1.0)
        assert 0.0 <= rows[1]["availability"] <= 1.0
        text = faults_exp.render(data)
        assert "MTBF" in text and "avail" in text
