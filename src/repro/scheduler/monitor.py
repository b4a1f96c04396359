"""System monitor and model self-correction (Fig. 2's feedback loop).

The monitor tracks the fluctuating load (arrivals and requests in
flight) and observed end-to-end latencies; traces sample them as
``monitor.snapshot`` events, and the failover planner reads the arrival
rate.  Its products are:

* a per-application **correction factor**: the EWMA ratio of observed
  to predicted latency.  The paper reports <6% model error and states
  that Poly "tolerates the wrong prediction by making self-correction
  through the feedback loop"; multiplying predictions by this factor is
  that correction;
* per-device **heartbeats**: live accelerators beat into the monitor on
  every submission, and :meth:`SystemMonitor.missed_heartbeats` surfaces
  the devices whose beat has lapsed — the failure-detection signal the
  fault-injection subsystem's failover planner polls.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import math

__all__ = ["SystemMonitor"]


class SystemMonitor:
    """Sliding-window monitor of load, latency and prediction error."""

    def __init__(
        self,
        window: int = 256,
        ewma_alpha: float = 0.2,
        correction_bounds: Tuple[float, float] = (0.5, 2.0),
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.window = window
        self.ewma_alpha = ewma_alpha
        self.correction_bounds = correction_bounds

        self._latencies: Deque[float] = deque(maxlen=window)
        self._arrival_times: Deque[float] = deque(maxlen=window)
        self._queue_depth = 0
        self._correction = 1.0
        self._heartbeats: Dict[str, float] = {}

    # -- event feed (called by the simulator/runtime) ------------------------

    def record_arrival(self, now_ms: float) -> None:
        """A request entered the system."""
        self._arrival_times.append(now_ms)
        self._queue_depth += 1

    def record_completion(
        self,
        latency_ms: float,
        predicted_ms: Optional[float] = None,
    ) -> None:
        """A request finished; optionally feed the prediction it was
        scheduled with to update the correction factor."""
        if latency_ms < 0:
            raise ValueError("latency must be non-negative")
        self._latencies.append(latency_ms)
        self._queue_depth = max(self._queue_depth - 1, 0)
        if predicted_ms is not None and predicted_ms > 0:
            ratio = latency_ms / predicted_ms
            lo, hi = self.correction_bounds
            ratio = min(max(ratio, lo), hi)
            self._correction += self.ewma_alpha * (ratio - self._correction)

    def record_drop(self) -> None:
        """A request was shed at admission: it leaves the queue without
        contributing a latency sample (load shedding must not poison
        the tail-latency window or the correction factor)."""
        self._queue_depth = max(self._queue_depth - 1, 0)

    def record_heartbeat(self, device_id: str, now_ms: float) -> None:
        """A device reported itself alive (monotone per device)."""
        last = self._heartbeats.get(device_id)
        if last is None or now_ms > last:
            self._heartbeats[device_id] = now_ms

    def last_heartbeat_ms(self, device_id: str) -> Optional[float]:
        return self._heartbeats.get(device_id)

    def missed_heartbeats(self, now_ms: float, timeout_ms: float) -> List[str]:
        """Devices whose last beat lapsed past ``timeout_ms`` — the
        missed-heartbeat failure-detection signal (sorted for
        determinism)."""
        if timeout_ms <= 0:
            raise ValueError("heartbeat timeout must be positive")
        return sorted(
            device_id
            for device_id, last in self._heartbeats.items()
            if now_ms - last >= timeout_ms
        )

    # -- the optimizer's view -------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently in flight — the immediate load signal."""
        return self._queue_depth

    @property
    def correction_factor(self) -> float:
        """Multiplier applied to model predictions (self-correction)."""
        return self._correction

    def corrected(self, predicted_ms: float) -> float:
        """Apply the feedback correction to a model prediction."""
        return predicted_ms * self._correction

    def arrival_rate_rps(self, now_ms: float, horizon_ms: float = 1000.0) -> float:
        """Observed arrival rate over the trailing horizon."""
        if horizon_ms <= 0:
            raise ValueError("horizon must be positive")
        cutoff = now_ms - horizon_ms
        recent = sum(1 for t in self._arrival_times if t >= cutoff)
        return recent * 1000.0 / horizon_ms

    def tail_latency_ms(self, percentile: float = 99.0) -> Optional[float]:
        """Windowed tail latency; ``None`` until data arrives."""
        if not self._latencies:
            return None
        if not 0.0 < percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        ordered = sorted(self._latencies)
        rank = max(math.ceil(percentile / 100.0 * len(ordered)) - 1, 0)
        return ordered[rank]

    def snapshot(self, now_ms: float) -> Dict[str, float]:
        """One observability sample of the feedback-loop state.

        The fields are the monitor's state at a replan tick (queue
        depth, correction factor, windowed tail, arrival rate), so a
        trace's ``monitor.snapshot`` events show how they evolved; no
        planner reads them.  All values derive from the sim clock and
        recorded events — nothing wall-clock — keeping traces
        deterministic.
        """
        tail = self.tail_latency_ms()
        return {
            "queue_depth": self._queue_depth,
            "correction_factor": round(self._correction, 6),
            "tail_ms": round(tail, 6) if tail is not None else 0.0,
            "arrival_rate_rps": round(self.arrival_rate_rps(now_ms), 6),
        }
