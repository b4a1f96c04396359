"""Typed fault events and deterministic fault schedules.

A :class:`FaultSchedule` is an immutable, time-sorted list of
:class:`FaultEvent` objects describing *what goes wrong and when* on a
leaf node: device crashes, transient (soft-error) kernel failures,
thermal/degraded-clock slowdowns and recoveries.  Schedules are either
hand-written (deterministic chaos scenarios, e.g. "kill fpga0 at
3 s") or drawn from MTBF/MTTR exponential processes with a fixed seed,
so every chaos run is exactly reproducible.

The schedule is *pure data*: all mutation (device health, consumed
transients, detection bookkeeping) lives in
:class:`~repro.faults.injector.FaultInjector`.  Being immutable, it is
indexed once per device at construction, so the per-dispatch queries
(outage overlap, transients inside a window) never rescan the whole
event list.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FaultKind", "FaultEvent", "FaultSchedule"]

#: Latency multiplier of a thermal slowdown drawn by
#: :meth:`FaultSchedule.from_mtbf`.
SLOWDOWN_FACTOR = 1.5


class FaultKind(enum.Enum):
    """The four event types the injection engine understands."""

    DEVICE_CRASH = "device_crash"    # device goes down (fail-stop)
    TRANSIENT = "transient"          # one kernel execution is lost
    SLOWDOWN = "slowdown"            # degraded clocks (thermal throttle)
    RECOVERY = "recovery"            # device returns to service


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: when, what, and on which device.

    ``magnitude`` only matters for :data:`FaultKind.SLOWDOWN`: it is the
    latency multiplier (>= 1) applied to executions while degraded.
    """

    time_ms: float
    kind: FaultKind
    device_id: str
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.time_ms < 0:
            raise ValueError("fault time must be non-negative")
        if not self.device_id:
            raise ValueError("fault event needs a device id")
        if self.kind == FaultKind.SLOWDOWN and self.magnitude < 1.0:
            raise ValueError("slowdown magnitude must be >= 1 (latency multiplier)")


class FaultSchedule:
    """An immutable, time-ordered fault scenario for one leaf node."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time_ms, e.device_id, e.kind.value))
        )
        #: Per-device index: events, outage windows, and transients with
        #: their schedule indices plus a parallel list of their times.
        self._by_device: Dict[str, List[FaultEvent]] = {}
        self._transients: Dict[str, List[Tuple[int, FaultEvent]]] = {}
        for index, event in enumerate(self.events):
            self._by_device.setdefault(event.device_id, []).append(event)
            if event.kind == FaultKind.TRANSIENT:
                self._transients.setdefault(event.device_id, []).append(
                    (index, event)
                )
        self._transient_ms = {
            device_id: [e.time_ms for _, e in items]
            for device_id, items in self._transients.items()
        }
        self._down = {
            device_id: self._outages(events)
            for device_id, events in self._by_device.items()
        }

    # -- construction ---------------------------------------------------------

    @classmethod
    def single_crash(
        cls,
        device_id: str,
        at_ms: float,
        recover_at_ms: Optional[float] = None,
    ) -> "FaultSchedule":
        """The canonical chaos scenario: one device dies mid-run (and
        optionally comes back)."""
        events = [FaultEvent(at_ms, FaultKind.DEVICE_CRASH, device_id)]
        if recover_at_ms is not None:
            if recover_at_ms <= at_ms:
                raise ValueError("recovery must come after the crash")
            events.append(FaultEvent(recover_at_ms, FaultKind.RECOVERY, device_id))
        return cls(events)

    @classmethod
    def from_mtbf(
        cls,
        device_ids: Sequence[str],
        duration_ms: float,
        mtbf_ms: float,
        mttr_ms: float,
        seed: int = 0,
        transient_rate_per_s: float = 0.0,
        slowdown_prob: float = 0.0,
    ) -> "FaultSchedule":
        """Seed-driven generator: per-device alternating up/down renewal
        process with exponential MTBF (time-to-failure) and MTTR
        (time-to-repair), plus optional Poisson transient faults.

        With probability ``slowdown_prob`` a failure manifests as a
        thermal slowdown (degraded clocks, :data:`SLOWDOWN_FACTOR`)
        instead of a fail-stop crash; its recovery ends the throttling.
        Identical seeds produce identical schedules.
        """
        if duration_ms <= 0:
            raise ValueError("duration must be positive")
        if mtbf_ms <= 0 or mttr_ms <= 0:
            raise ValueError("MTBF and MTTR must be positive")
        if not 0.0 <= slowdown_prob <= 1.0:
            raise ValueError("slowdown_prob must be in [0, 1]")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        for device_id in device_ids:
            t = float(rng.exponential(mtbf_ms))
            while t < duration_ms:
                down = float(rng.exponential(mttr_ms))
                if rng.random() < slowdown_prob:
                    events.append(
                        FaultEvent(t, FaultKind.SLOWDOWN, device_id, SLOWDOWN_FACTOR)
                    )
                else:
                    events.append(FaultEvent(t, FaultKind.DEVICE_CRASH, device_id))
                up = t + down
                if up < duration_ms:
                    events.append(FaultEvent(up, FaultKind.RECOVERY, device_id))
                t = up + float(rng.exponential(mtbf_ms))
            if transient_rate_per_s > 0:
                tt = float(rng.exponential(1000.0 / transient_rate_per_s))
                while tt < duration_ms:
                    events.append(FaultEvent(tt, FaultKind.TRANSIENT, device_id))
                    tt += float(rng.exponential(1000.0 / transient_rate_per_s))
        return cls(events)

    # -- queries --------------------------------------------------------------

    def device_ids(self) -> List[str]:
        return sorted(self._by_device)

    def crashes(self) -> List[FaultEvent]:
        return [e for e in self.events if e.kind == FaultKind.DEVICE_CRASH]

    @staticmethod
    def _outages(events: Sequence[FaultEvent]) -> List[Tuple[float, float]]:
        out: List[Tuple[float, float]] = []
        open_at: Optional[float] = None
        for e in events:
            if e.kind == FaultKind.DEVICE_CRASH and open_at is None:
                open_at = e.time_ms
            elif e.kind == FaultKind.RECOVERY and open_at is not None:
                out.append((open_at, e.time_ms))
                open_at = None
        if open_at is not None:
            out.append((open_at, math.inf))
        return out

    def down_intervals(self, device_id: str) -> List[Tuple[float, float]]:
        """Fail-stop outage windows ``(crash_ms, recovery_ms)`` for one
        device; an unrecovered crash extends to ``+inf``.  Nested or
        repeated crashes inside an open outage are collapsed."""
        return list(self._down.get(device_id, ()))

    def permanently_failed(self, device_id: str) -> bool:
        """True when the device's last outage never ends."""
        intervals = self.down_intervals(device_id)
        return bool(intervals) and math.isinf(intervals[-1][1])

    def first_crash_overlap(
        self, device_id: str, start_ms: float, end_ms: float
    ) -> Optional[float]:
        """The moment an execution spanning ``(start, end]`` on this
        device is lost to an outage, or ``None``.  An execution already
        inside an outage window is lost immediately (at its start)."""
        for lo, hi in self._down.get(device_id, ()):
            if lo <= end_ms and hi > start_ms:
                return max(lo, start_ms)
        return None

    def transients_within(
        self, device_id: str, start_ms: float, end_ms: float
    ) -> List[Tuple[int, FaultEvent]]:
        """The device's transients inside ``(start, end]`` with their
        schedule indices (the injector tracks consumption by index), in
        schedule order."""
        times = self._transient_ms.get(device_id)
        if not times:
            return []
        lo = bisect_right(times, start_ms)
        hi = bisect_right(times, end_ms, lo)
        return self._transients[device_id][lo:hi]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __repr__(self) -> str:
        kinds = {}
        for e in self.events:
            kinds[e.kind.value] = kinds.get(e.kind.value, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(kinds.items()))
        return f"<FaultSchedule: {len(self)} events ({summary or 'empty'})>"
