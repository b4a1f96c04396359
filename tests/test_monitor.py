"""Unit tests for the system monitor (Fig. 2's monitor): its latency
and arrival windows, snapshots and device heartbeats."""

import numpy as np
import pytest

from repro.runtime import trace_arrivals
from repro.scheduler import SystemMonitor
from repro.scheduler.monitor import WINDOW


class TestMonitorWindows:
    def test_tail_latency_none_until_data(self):
        assert SystemMonitor().tail_latency_ms() is None

    def test_tail_latency_nearest_rank(self):
        m = SystemMonitor()
        for v in range(1, 101):
            m.record_completion(float(v))
        assert m.tail_latency_ms(99.0) == 99.0
        assert m.tail_latency_ms(50.0) == 50.0

    def test_window_evicts_old_samples(self):
        m = SystemMonitor()
        for v in (1000.0, 1000.0) + (1.0,) * WINDOW:
            m.record_completion(v)
        assert m.tail_latency_ms() == 1.0

    def test_arrival_window_keeps_the_latest(self):
        m = SystemMonitor()
        for t in range(WINDOW + 10):
            m.record_arrival(float(t))
        assert list(m._arrival_times) == [
            float(t) for t in range(10, WINDOW + 10)
        ]

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            SystemMonitor().record_completion(-1.0)

    def test_invalid_percentile(self):
        m = SystemMonitor()
        m.record_completion(1.0)
        with pytest.raises(ValueError):
            m.tail_latency_ms(0.0)


class TestQueueSignal:
    """The load signal the shedding decision reads: the arrival rate."""

    def test_arrival_rate_over_horizon(self):
        m = SystemMonitor()
        for t in range(100):
            m.record_arrival(float(t * 10))  # 100 arrivals over 1 s
        assert m.arrival_rate_rps(now_ms=1000.0, horizon_ms=1000.0) == pytest.approx(
            100.0, rel=0.05
        )


class TestBurstDecay:
    """Monitor behaviour under bursty loadgen traces: the arrival rate
    must surge during a burst and decay back once it passes."""

    @staticmethod
    def _bursty_arrivals():
        # 1 s quiet / 1 s burst / 2 s quiet at a 100 rps peak.
        return trace_arrivals(
            [0.05, 1.0, 0.05, 0.05],
            interval_ms=1000.0,
            peak_rps=100.0,
            rng=np.random.default_rng(7),
        )

    @staticmethod
    def _rate_at(arrivals, now_ms):
        # Replay the trace as a live monitor would see it: only
        # arrivals that have already happened by ``now_ms``.
        m = SystemMonitor()
        for t in arrivals:
            if t <= now_ms:
                m.record_arrival(t)
        return m

    def test_arrival_rate_surges_then_decays(self):
        arrivals = self._bursty_arrivals()
        quiet = self._rate_at(arrivals, 1000.0).arrival_rate_rps(1000.0)
        burst = self._rate_at(arrivals, 2000.0).arrival_rate_rps(2000.0)
        after = self._rate_at(arrivals, 4500.0).arrival_rate_rps(4500.0)
        assert burst > 5 * max(quiet, 1.0)
        # The trailing-horizon window forgets the burst within a second.
        assert after < 0.25 * burst

    def test_snapshot_reports_loop_inputs(self):
        m = SystemMonitor()
        snap = SystemMonitor().snapshot(0.0)
        assert snap == {"tail_ms": 0.0, "arrival_rate_rps": 0.0}
        m.record_arrival(100.0)
        m.record_arrival(110.0)
        m.record_completion(42.0)
        snap = m.snapshot(500.0)
        assert snap == {
            "tail_ms": pytest.approx(42.0),
            "arrival_rate_rps": pytest.approx(2.0),
        }


class TestHeartbeats:
    def test_missed_heartbeats_after_timeout(self):
        m = SystemMonitor()
        m.record_heartbeat("gpu0", 100.0)
        m.record_heartbeat("fpga0", 100.0)
        assert m.missed_heartbeats(120.0, timeout_ms=50.0) == []
        m.record_heartbeat("gpu0", 160.0)
        assert m.missed_heartbeats(160.0, timeout_ms=50.0) == ["fpga0"]

    def test_heartbeats_are_monotone(self):
        m = SystemMonitor()
        m.record_heartbeat("gpu0", 100.0)
        m.record_heartbeat("gpu0", 40.0)  # stale beat ignored
        assert m.last_heartbeat_ms("gpu0") == 100.0

    def test_unknown_device_has_no_beat(self):
        assert SystemMonitor().last_heartbeat_ms("nope") is None

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            SystemMonitor().missed_heartbeats(0.0, timeout_ms=0.0)
