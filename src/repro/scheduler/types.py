"""Shared scheduler data types: devices, assignments, schedules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..hardware.specs import DeviceType
from ..optim.design_point import DesignPoint

__all__ = ["DeviceSlot", "Assignment", "Schedule"]


@dataclass
class DeviceSlot:
    """One schedulable accelerator instance in the leaf node.

    ``available_at_ms`` is the device's queueing horizon —
    :math:`T_{queue}(d_n)` in Eq. 4: the earliest time the device can
    accept new work (it may already hold queued kernels from other
    requests).
    """

    device_id: str
    platform: str
    device_type: DeviceType
    available_at_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.available_at_ms < 0:
            raise ValueError("available_at_ms must be non-negative")


@dataclass(frozen=True)
class Assignment:
    """One scheduled kernel: implementation, device and time window.

    The paper's :math:`(K_i^r, Device)` notation from Fig. 6.
    """

    kernel_name: str
    point: DesignPoint
    device_id: str
    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.end_ms < self.start_ms:
            raise ValueError("assignment ends before it starts")

    @property
    def latency_ms(self) -> float:
        return self.point.latency_ms

    @property
    def energy_mj(self) -> float:
        return self.point.energy_mj

    def label(self) -> str:
        return (
            f"(K_{self.kernel_name}^{self.point.index}, "
            f"{self.point.device_type.value.upper()}:{self.device_id})"
        )


class Schedule:
    """A complete placement of an application's kernels.

    Records per-kernel assignments plus the derived aggregates the
    energy-optimization step and the simulator need.
    """

    def __init__(self, app_name: str, assignments: Sequence[Assignment]) -> None:
        if not assignments:
            raise ValueError("a schedule needs at least one assignment")
        self.app_name = app_name
        self.assignments: Dict[str, Assignment] = {}
        for a in assignments:
            if a.kernel_name in self.assignments:
                raise ValueError(f"kernel {a.kernel_name!r} assigned twice")
            self.assignments[a.kernel_name] = a

    def __getitem__(self, kernel_name: str) -> Assignment:
        return self.assignments[kernel_name]

    def __iter__(self):
        return iter(self.assignments.values())

    def __len__(self) -> int:
        return len(self.assignments)

    @property
    def makespan_ms(self) -> float:
        """End-to-end latency L of the kernel graph under this schedule."""
        return max(a.end_ms for a in self.assignments.values())

    @property
    def total_energy_mj(self) -> float:
        """Sum of per-kernel active energies."""
        return sum(a.energy_mj for a in self.assignments.values())

    def device_busy_ms(self) -> Dict[str, float]:
        """Per-device busy time under this schedule."""
        busy: Dict[str, float] = {}
        for a in self.assignments.values():
            busy[a.device_id] = busy.get(a.device_id, 0.0) + a.latency_ms
        return busy

    def devices_used(self) -> List[str]:
        return sorted({a.device_id for a in self.assignments.values()})

    def replaced(self, new: Assignment) -> "Schedule":
        """Copy of this schedule with one assignment swapped out."""
        assignments = dict(self.assignments)
        assignments[new.kernel_name] = new
        return Schedule(self.app_name, list(assignments.values()))

    def gantt(self) -> str:
        """Fig.-6-style textual schedule, one line per assignment."""
        lines = [f"schedule of {self.app_name} (makespan {self.makespan_ms:.1f} ms)"]
        for a in sorted(self.assignments.values(), key=lambda a: a.start_ms):
            lines.append(
                f"  {a.start_ms:8.1f} -> {a.end_ms:8.1f} ms  {a.label()}"
                f"  {a.point.power_w:5.1f} W"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Schedule {self.app_name!r}: {len(self)} kernels, "
            f"makespan {self.makespan_ms:.1f} ms, "
            f"{self.total_energy_mj:.0f} mJ>"
        )
