"""Failover planner: replanning over survivors and graceful degradation.

When the :class:`~repro.scheduler.monitor.SystemMonitor` detects a
failure (a device stops heartbeating for longer than the heartbeat
timeout), the planner:

1. quarantines the device (the dispatcher stops routing to it),
2. invalidates the node's precomputed operating plans and immediately
   re-runs the latency/energy scheduling passes over the *surviving*
   device set — the per-device Pareto fronts from the offline DSE are
   reused as-is, so a kernel whose preferred FPGA died falls back to
   its GPU implementations and vice versa,
3. records a :class:`RecoveryRecord` (crash -> detection -> replan)
   from which the resilience metrics derive recovery time.

When the surviving capacity cannot carry the offered load under the
QoS bound, the planner enters **graceful degradation**: the lowest-
priority slice of incoming requests is shed at admission so the rest
still meet the 200 ms bound, rather than every request missing it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Set

__all__ = ["RecoveryRecord", "FailoverPlanner", "HEARTBEAT_TIMEOUT_MS"]

#: How long a device may miss heartbeats before the planner confirms
#: it failed.
HEARTBEAT_TIMEOUT_MS = 50.0


@dataclass(frozen=True)
class RecoveryRecord:
    """One failure-to-failover episode on a device."""

    device_id: str
    failed_ms: float     # when the device actually went down
    detected_ms: float   # when the missed heartbeat crossed the timeout
    replanned_ms: float  # when the surviving-set plans were in place

    @property
    def detection_ms(self) -> float:
        return self.detected_ms - self.failed_ms

    @property
    def recovery_ms(self) -> float:
        """Crash-to-failover time: how long requests saw a degraded node."""
        return self.replanned_ms - self.failed_ms


class FailoverPlanner:
    """Reacts to monitor-detected failures by replanning over survivors."""

    #: Never shed more than this fraction, even under extreme capacity
    #: loss — some traffic must keep probing the system for recovery.
    MAX_SHED = 0.95

    def __init__(self, node) -> None:
        #: A weak proxy: the node holds its planner, so a strong
        #: reference back would make every finished chaos run cyclic
        #: garbage.
        self.node = weakref.proxy(node)
        #: The node's device list, read on every arrival (heartbeats).
        self._devices = node.devices
        self.monitor = node.monitor
        #: The node's tracer: detections and replans land in the run's
        #: event stream.
        self.tracer = node.tracer
        self.recoveries: List[RecoveryRecord] = []
        self.shed_level = 0.0
        self._down: Set[str] = set()
        self._by_id = {d.device_id: d for d in node.devices}

    # -- detection ------------------------------------------------------------

    def heartbeat(self, now_ms: float) -> None:
        """Live devices heartbeat into the monitor; a crashed device's
        beat stays frozen at its last pre-crash submission."""
        from .policy import DeviceHealth

        for dev in self._devices:
            if dev.health != DeviceHealth.FAILED:
                self.monitor.record_heartbeat(dev.device_id, now_ms)

    def poll(self, now_ms: float) -> None:
        """Confirm failures whose heartbeats have lapsed past the timeout."""
        from .policy import DeviceHealth

        for device_id in self.monitor.missed_heartbeats(
            now_ms, HEARTBEAT_TIMEOUT_MS
        ):
            dev = self._by_id.get(device_id)
            if (
                dev is not None
                and dev.health == DeviceHealth.FAILED
                and not dev.failure_detected
            ):
                self.confirm_failure(dev, now_ms)

    # -- failover -------------------------------------------------------------

    def confirm_failure(self, device, now_ms: float) -> None:
        """Quarantine the device and replan over the surviving set."""
        device.failure_detected = True
        self._down.add(device.device_id)
        failed_at = device.failed_at_ms if device.failed_at_ms is not None else now_ms
        if self.tracer.enabled:
            last = self.monitor.last_heartbeat_ms(device.device_id)
            self.tracer.emit(
                "fault.heartbeat_miss",
                name=device.device_id,
                t_ms=now_ms,
                device=device.device_id,
                last_beat_ms=last if last is not None else failed_at,
            )
            self.tracer.emit(
                "fault.failover",
                name=device.device_id,
                t_ms=now_ms,
                device=device.device_id,
                failed_ms=failed_at,
                detected_ms=now_ms,
            )
        self.node.invalidate_plans()
        self.node.maybe_replan(now_ms)
        self.recoveries.append(
            RecoveryRecord(device.device_id, failed_at, now_ms, now_ms)
        )

    def on_recovery(self, device, now_ms: float) -> None:
        """A repaired device rejoins the pool: replan to reuse it."""
        if self.tracer.enabled:
            self.tracer.emit(
                "fault.recover",
                name=device.device_id,
                t_ms=now_ms,
                device=device.device_id,
            )
        self._down.discard(device.device_id)
        self.monitor.record_heartbeat(device.device_id, now_ms)
        self.node.invalidate_plans()
        self.node.maybe_replan(now_ms)
        if not self._down:
            self.shed_level = 0.0

    # -- graceful degradation -------------------------------------------------

    def should_shed(self, priority: float, now_ms: float) -> bool:
        """Load-shedding admission decision under degraded capacity.

        While any device is quarantined, compare the observed arrival
        rate against the surviving plan's capacity estimate; when the
        offered load exceeds it, shed the lowest-priority fraction of
        requests (``priority`` below the deficit fraction) so the
        remainder can still meet the QoS bound.
        """
        if not self._down:
            self.shed_level = 0.0
            return False
        capacity = self.node.capacity_estimate_rps()
        rate = self.monitor.arrival_rate_rps(now_ms)
        if capacity <= 0:
            self.shed_level = self.MAX_SHED
        elif rate <= capacity:
            self.shed_level = 0.0
        else:
            self.shed_level = min(1.0 - capacity / rate, self.MAX_SHED)
        return priority < self.shed_level

    @property
    def quarantined(self) -> Set[str]:
        return set(self._down)
