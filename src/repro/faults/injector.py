"""The fault-injection engine: applies a schedule to a running node.

The injector sits between the arrival stream and the leaf node.  On
every submission the node calls :meth:`FaultInjector.advance`, which

* applies every schedule event that has come due — crashing, throttling
  or repairing :class:`~repro.runtime.node.AcceleratorInstance` objects,
* lets live devices heartbeat into the system monitor, and
* polls the :class:`~repro.faults.failover.FailoverPlanner` so lapsed
  heartbeats turn into quarantine + replanning.

During dispatch the node asks :meth:`execution_fault` whether a just-
reserved execution is lost to an outage or a transient soft error; the
node then aborts the reservation and retries under the retry constants
of :mod:`repro.faults.policy`.  Because the schedule is static data and
all randomness is seed-driven, a chaos run is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..obs.tracer import NULL_TRACER
from .events import FaultEvent, FaultKind, FaultSchedule
from .failover import FailoverPlanner, RecoveryRecord
from .policy import DeviceHealth

__all__ = ["ResilienceReport", "FaultInjector"]


@dataclass
class ResilienceReport:
    """Aggregate outcome of one chaos run."""

    applied: List[FaultEvent] = field(default_factory=list)
    retries: int = 0
    failovers: int = 0          # retries that moved to another device
    shed: int = 0               # requests dropped by graceful degradation
    failed_requests: int = 0    # requests that exhausted their retries
    recoveries: List[RecoveryRecord] = field(default_factory=list)

    @property
    def mean_recovery_ms(self) -> float:
        from ..runtime.metrics import mean_recovery_ms

        return mean_recovery_ms([r.recovery_ms for r in self.recoveries])

    def summary(self) -> Dict[str, float]:
        return {
            "events_applied": float(len(self.applied)),
            "retries": float(self.retries),
            "failovers": float(self.failovers),
            "shed": float(self.shed),
            "failed_requests": float(self.failed_requests),
            "recoveries": float(len(self.recoveries)),
            "mean_recovery_ms": self.mean_recovery_ms,
        }

    def __repr__(self) -> str:
        return (
            f"<ResilienceReport: {len(self.applied)} events, "
            f"{self.retries} retries ({self.failovers} failovers), "
            f"{self.shed} shed, {self.failed_requests} failed, "
            f"{len(self.recoveries)} recoveries>"
        )


class FaultInjector:
    """Applies a :class:`FaultSchedule` to one leaf node over a run."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        #: The bound node's tracer (set by :meth:`bind`).
        self.tracer = NULL_TRACER
        self.report = ResilienceReport()
        self._cursor = 0
        self._consumed: Set[int] = set()
        self._by_id: Dict[str, object] = {}
        self.planner: Optional[FailoverPlanner] = None

    # -- wiring ---------------------------------------------------------------

    def bind(self, node) -> FailoverPlanner:
        """Attach to a leaf node (one injector drives one node).

        The injector keeps the node's devices, not the node: the node
        holds the injector, and a reference back would make every
        finished chaos run cyclic garbage."""
        if self.planner is not None:
            raise RuntimeError("injector is already bound to a node")
        known = {d.device_id for d in node.devices}
        unknown = [d for d in self.schedule.device_ids() if d not in known]
        if unknown:
            raise ValueError(
                f"fault schedule names unknown devices {unknown}; "
                f"node has {sorted(known)}"
            )
        self._by_id = {d.device_id: d for d in node.devices}
        self.tracer = node.tracer
        self.planner = FailoverPlanner(node)
        self.report.recoveries = self.planner.recoveries
        node.attach_injector(self)
        return self.planner

    # -- the simulation clock -------------------------------------------------

    def advance(self, now_ms: float) -> None:
        """Apply all events due at ``now_ms``; heartbeat; detect."""
        if self.planner is None:
            raise RuntimeError("injector is not bound to a node")
        by_id = self._by_id
        events = self.schedule.events
        while self._cursor < len(events) and events[self._cursor].time_ms <= now_ms:
            event = events[self._cursor]
            self._cursor += 1
            self._apply(event, by_id[event.device_id], now_ms)
        self.planner.heartbeat(now_ms)
        self.planner.poll(now_ms)

    def _apply(self, event: FaultEvent, device, now_ms: float) -> None:
        if event.kind == FaultKind.DEVICE_CRASH:
            if device.health != DeviceHealth.FAILED:
                device.mark_failed(event.time_ms)
                self.report.applied.append(event)
                self._trace_applied(event)
        elif event.kind == FaultKind.SLOWDOWN:
            if device.health != DeviceHealth.FAILED:
                device.mark_degraded(event.magnitude)
                self.report.applied.append(event)
                self._trace_applied(event)
        elif event.kind == FaultKind.RECOVERY:
            was_failed = device.health == DeviceHealth.FAILED
            if device.health != DeviceHealth.HEALTHY:
                device.mark_recovered(event.time_ms)
                self.report.applied.append(event)
                self._trace_applied(event)
            if was_failed:
                self.planner.on_recovery(device, now_ms)
        else:  # TRANSIENT events fire at dispatch time, not here.
            pass

    def _trace_applied(self, event: FaultEvent) -> None:
        if self.tracer.enabled:
            args = {"fault": event.kind.value, "device": event.device_id}
            if event.kind == FaultKind.SLOWDOWN:
                args["magnitude"] = event.magnitude
            self.tracer.emit(
                "fault.inject",
                name=event.kind.value,
                t_ms=event.time_ms,
                **args,
            )

    # -- dispatch interception ------------------------------------------------

    def execution_fault(
        self, device, start_ms: float, end_ms: float
    ) -> Optional[Tuple[float, FaultKind]]:
        """Does an execution reserved on ``(start, end]`` fail?

        Returns ``(fault_ms, kind)`` for the earliest applicable fault —
        a fail-stop outage overlapping the window (including dispatches
        onto an already-dead but not-yet-quarantined device, which fail
        at their start), or an unconsumed transient soft error — else
        ``None``.  Transients are one-shot: the first execution that
        overlaps one consumes it.
        """
        crash_ms = self.schedule.first_crash_overlap(
            device.device_id, start_ms, end_ms
        )
        transient: Optional[Tuple[int, float]] = None
        for index, event in self.schedule.transients_within(
            device.device_id, start_ms, end_ms
        ):
            if index not in self._consumed:
                transient = (index, event.time_ms)
                break
        if crash_ms is not None and (transient is None or crash_ms <= transient[1]):
            return crash_ms, FaultKind.DEVICE_CRASH
        if transient is not None:
            self._consumed.add(transient[0])
            self.report.applied.append(self.schedule.events[transient[0]])
            self._trace_applied(self.schedule.events[transient[0]])
            return transient[1], FaultKind.TRANSIENT
        return None
