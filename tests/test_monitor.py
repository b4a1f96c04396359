"""Unit tests for the system monitor (the Fig. 2 feedback loop)."""

import numpy as np
import pytest

from repro.runtime import trace_arrivals
from repro.scheduler import SystemMonitor


class TestMonitorWindows:
    def test_tail_latency_none_until_data(self):
        assert SystemMonitor().tail_latency_ms() is None

    def test_tail_latency_nearest_rank(self):
        m = SystemMonitor(window=512)
        for v in range(1, 101):
            m.record_completion(float(v))
        assert m.tail_latency_ms(99.0) == 99.0
        assert m.tail_latency_ms(50.0) == 50.0

    def test_window_evicts_old_samples(self):
        m = SystemMonitor(window=4)
        for v in (1000.0, 1000.0, 1.0, 1.0, 1.0, 1.0):
            m.record_completion(v)
        assert m.tail_latency_ms() == 1.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            SystemMonitor().record_completion(-1.0)

    def test_invalid_percentile(self):
        m = SystemMonitor()
        m.record_completion(1.0)
        with pytest.raises(ValueError):
            m.tail_latency_ms(0.0)


class TestQueueSignal:
    def test_queue_depth_tracks_inflight(self):
        m = SystemMonitor()
        m.record_arrival(0.0)
        m.record_arrival(1.0)
        assert m.queue_depth == 2
        m.record_completion(5.0)
        assert m.queue_depth == 1

    def test_queue_depth_never_negative(self):
        m = SystemMonitor()
        m.record_completion(1.0)
        assert m.queue_depth == 0

    def test_arrival_rate_over_horizon(self):
        m = SystemMonitor(window=512)
        for t in range(100):
            m.record_arrival(float(t * 10))  # 100 arrivals over 1 s
        assert m.arrival_rate_rps(now_ms=1000.0, horizon_ms=1000.0) == pytest.approx(
            100.0, rel=0.05
        )


class TestSelfCorrection:
    def test_correction_starts_at_unity(self):
        assert SystemMonitor().correction_factor == 1.0

    def test_correction_tracks_overruns(self):
        m = SystemMonitor(ewma_alpha=0.5)
        for _ in range(20):
            m.record_completion(120.0, predicted_ms=100.0)
        assert m.correction_factor == pytest.approx(1.2, rel=0.05)
        assert m.corrected(100.0) == pytest.approx(120.0, rel=0.05)

    def test_correction_bounded(self):
        m = SystemMonitor(ewma_alpha=1.0, correction_bounds=(0.5, 2.0))
        m.record_completion(1000.0, predicted_ms=1.0)
        assert m.correction_factor <= 2.0
        m.record_completion(0.001, predicted_ms=1000.0)
        assert m.correction_factor >= 0.5 * 0.5  # EWMA of clamped ratios

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SystemMonitor(window=0)
        with pytest.raises(ValueError):
            SystemMonitor(ewma_alpha=0.0)


class TestCorrectionClamping:
    def test_ratio_clamped_exactly_at_bounds(self):
        # alpha=1.0 makes the correction the clamped ratio itself, so
        # the bound values must be reachable exactly, never exceeded.
        m = SystemMonitor(ewma_alpha=1.0, correction_bounds=(0.5, 2.0))
        m.record_completion(300.0, predicted_ms=100.0)  # ratio 3.0 -> 2.0
        assert m.correction_factor == pytest.approx(2.0)
        m.record_completion(10.0, predicted_ms=100.0)  # ratio 0.1 -> 0.5
        assert m.correction_factor == pytest.approx(0.5)

    def test_ratio_at_bound_is_not_clamped(self):
        m = SystemMonitor(ewma_alpha=1.0, correction_bounds=(0.5, 2.0))
        m.record_completion(200.0, predicted_ms=100.0)  # ratio exactly 2.0
        assert m.correction_factor == pytest.approx(2.0)
        m.record_completion(50.0, predicted_ms=100.0)  # ratio exactly 0.5
        assert m.correction_factor == pytest.approx(0.5)

    def test_correction_stays_within_bounds_under_any_feed(self):
        m = SystemMonitor(ewma_alpha=0.7, correction_bounds=(0.8, 1.25))
        for latency, predicted in ((1e6, 1.0), (1e-6, 1e6), (500.0, 1.0)):
            m.record_completion(latency, predicted_ms=predicted)
            assert 0.8 * 0.8 <= m.correction_factor <= 1.25


class TestQueueDepthOutOfOrder:
    def test_out_of_order_completions_balance_arrivals(self):
        # Completions do not name a request: three arrivals finishing
        # in any order must leave the queue empty, never negative.
        m = SystemMonitor()
        for t in (0.0, 1.0, 2.0):
            m.record_arrival(t)
        for latency in (50.0, 5.0, 20.0):  # 2nd request finished first
            m.record_completion(latency)
        assert m.queue_depth == 0

    def test_spurious_completion_then_arrival(self):
        m = SystemMonitor()
        m.record_completion(10.0)  # no matching arrival: clamps at 0
        m.record_arrival(0.0)
        assert m.queue_depth == 1

    def test_drop_leaves_latency_window_untouched(self):
        m = SystemMonitor()
        m.record_arrival(0.0)
        m.record_drop()
        assert m.queue_depth == 0
        assert m.tail_latency_ms() is None
        m.record_drop()  # spurious drop also clamps at zero
        assert m.queue_depth == 0


class TestBurstDecay:
    """Monitor behaviour under bursty loadgen traces: the arrival rate
    must surge during a burst and decay back once it passes, and the
    feedback correction must stay clamped however noisy the burst-era
    latencies get."""

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
        m = SystemMonitor(window=512)
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

    def test_correction_clamped_through_bursty_latencies(self):
        # Burst-era latencies overrun predictions wildly; the EWMA must
        # ride at the clamp, never beyond it, and come back down once
        # post-burst latencies match predictions again.
        m = SystemMonitor(ewma_alpha=0.3, correction_bounds=(0.5, 2.0))
        for _ in range(50):
            m.record_completion(900.0, predicted_ms=30.0)
        assert m.correction_factor <= 2.0
        assert m.correction_factor == pytest.approx(2.0, rel=0.01)
        for _ in range(50):
            m.record_completion(30.0, predicted_ms=30.0)
        assert m.correction_factor == pytest.approx(1.0, rel=0.05)

    def test_snapshot_reports_loop_inputs(self):
        m = SystemMonitor()
        snap = SystemMonitor().snapshot(0.0)
        assert snap == {
            "queue_depth": 0,
            "correction_factor": 1.0,
            "tail_ms": 0.0,
            "arrival_rate_rps": 0.0,
        }
        m.record_arrival(100.0)
        m.record_arrival(110.0)
        m.record_completion(42.0, predicted_ms=40.0)
        snap = m.snapshot(500.0)
        assert snap["queue_depth"] == 1
        assert snap["tail_ms"] == pytest.approx(42.0)
        assert snap["arrival_rate_rps"] == pytest.approx(2.0)
        assert snap["correction_factor"] > 1.0


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
