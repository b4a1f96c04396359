"""System monitor: observed load, latency and device heartbeats.

The monitor is Fig. 2's system monitor.  It keeps sliding windows of
arrival times and observed end-to-end latencies; traces sample them as
``monitor.snapshot`` events, and the failover planner reads the arrival
rate.  Its other product is per-device **heartbeats**: live
accelerators beat into the monitor on every submission, and
:meth:`SystemMonitor.missed_heartbeats` surfaces the devices whose beat
has lapsed — the failure-detection signal the fault-injection
subsystem's failover planner polls.

In the paper the monitor also feeds latency back so that the scheduler
corrects its predictions (Sec. V).  That self-correction is not
modelled: no plan here reads an observed latency (DESIGN §8).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

import math

__all__ = ["SystemMonitor", "WINDOW"]

#: Entries each sliding window keeps: the latest completions and the
#: latest arrivals.
WINDOW = 256


class SystemMonitor:
    """Sliding-window monitor of load, latency and device heartbeats."""

    def __init__(self) -> None:
        self._latencies: Deque[float] = deque(maxlen=WINDOW)
        self._arrival_times: Deque[float] = deque(maxlen=WINDOW)
        self._heartbeats: Dict[str, float] = {}

    # -- event feed (called by the simulator/runtime) ------------------------

    def record_arrival(self, now_ms: float) -> None:
        """A request entered the system."""
        self._arrival_times.append(now_ms)

    def record_completion(self, latency_ms: float) -> None:
        """A request finished (served or abandoned) after ``latency_ms``.
        A request shed at admission records no completion, so shedding
        does not poison the tail-latency window."""
        if latency_ms < 0:
            raise ValueError("latency must be non-negative")
        self._latencies.append(latency_ms)

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

    # -- readings -------------------------------------------------------------

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
        """One observability sample of the monitor's windows.

        The fields are the windowed tail latency and the arrival rate at
        a replan tick, so a trace's ``monitor.snapshot`` events show how
        they evolved; no planner reads them.  Both derive from the sim
        clock and recorded events — nothing wall-clock — keeping traces
        deterministic.
        """
        tail = self.tail_latency_ms()
        return {
            "tail_ms": round(tail, 6) if tail is not None else 0.0,
            "arrival_rate_rps": round(self.arrival_rate_rps(now_ms), 6),
        }
