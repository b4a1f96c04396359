"""Design points and per-kernel design spaces.

A :class:`DesignPoint` is one fully evaluated implementation of a kernel
on a concrete platform: the knob assignment plus the latency, power and
(for FPGAs) resource estimates the analytical models produced.  A
:class:`KernelDesignSpace` collects all points of one (kernel, platform)
pair — the object Fig. 1(c) plots and the runtime scheduler consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..hardware.config import ImplConfig
from ..hardware.specs import DeviceType

__all__ = ["DesignPoint", "KernelDesignSpace"]


@dataclass(frozen=True)
class DesignPoint:
    """One implementation of one kernel on one platform."""

    kernel_name: str
    platform: str
    device_type: DeviceType
    config: ImplConfig
    latency_ms: float
    power_w: float
    #: Index within its design space; the paper's :math:`k_i^r` notation.
    index: int = -1

    def __post_init__(self) -> None:
        if self.latency_ms <= 0:
            raise ValueError("latency must be positive")
        if self.power_w <= 0:
            raise ValueError("power must be positive")

    @property
    def energy_mj(self) -> float:
        """Energy per invocation, millijoules."""
        return self.latency_ms * self.power_w

    @property
    def energy_efficiency(self) -> float:
        """Invocations per joule — the y-axis of Fig. 1(c)."""
        return 1000.0 / self.energy_mj

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance on (latency, power): <= on both, < on one."""
        return (
            self.latency_ms <= other.latency_ms
            and self.power_w <= other.power_w
            and (
                self.latency_ms < other.latency_ms or self.power_w < other.power_w
            )
        )

    def label(self) -> str:
        """Paper-style label, e.g. ``K^3 @ FPGA``."""
        return f"{self.kernel_name}^{self.index} @ {self.device_type.value}"


class KernelDesignSpace:
    """All evaluated implementations of one kernel on one platform.

    Produced by :func:`repro.optim.dse.explore_kernel`; the runtime
    scheduler picks implementations out of the Pareto subset.
    """

    def __init__(
        self,
        kernel_name: str,
        platform: str,
        device_type: DeviceType,
        points: Sequence[DesignPoint],
    ) -> None:
        if not points:
            raise ValueError(
                f"design space of {kernel_name!r} on {platform!r} is empty — "
                "no feasible implementation was found"
            )
        self.kernel_name = kernel_name
        self.platform = platform
        self.device_type = device_type
        #: :class:`~repro.optim.search.SearchStats` when this space was
        #: produced by the guided explorer; ``None`` on exhaustive paths.
        self.search_stats = None
        # Points in (latency, power) order, indexed by position so labels
        # are stable; a point already carrying its index is kept.
        self.points: List[DesignPoint] = [
            p if p.index == i else replace(p, index=i)
            for i, p in enumerate(
                sorted(points, key=lambda p: (p.latency_ms, p.power_w))
            )
        ]
        # The points list is frozen after construction, so the scheduler
        # selections below are pure and memoizable.  min_latency() sits
        # on the runtime hot path (rank priorities, throughput planning,
        # failover candidates); computing each selection once turns those
        # into attribute reads.
        self._min_latency: Optional[DesignPoint] = None
        self._max_efficiency: Optional[DesignPoint] = None
        self._pareto: Optional[List[DesignPoint]] = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, index: int) -> DesignPoint:
        return self.points[index]

    # -- the selections the paper's scheduler uses --------------------------

    def min_latency(self) -> DesignPoint:
        """Fastest implementation (baseline hard-mapping under tight QoS)."""
        if self._min_latency is None:
            self._min_latency = min(self.points, key=lambda p: p.latency_ms)
        return self._min_latency

    def max_efficiency(self) -> DesignPoint:
        """Most energy-efficient implementation: the lowest energy per
        invocation (baseline under slack QoS; Step 2's W_E constant)."""
        if self._max_efficiency is None:
            self._max_efficiency = min(self.points, key=lambda p: p.energy_mj)
        return self._max_efficiency

    def pareto(self) -> List[DesignPoint]:
        """Latency/power Pareto frontier, sorted by ascending latency.

        Returns a fresh list each call (callers may slice/extend), built
        from a memoized frontier.
        """
        if self._pareto is None:
            frontier: List[DesignPoint] = []
            best_power = float("inf")
            for p in self.points:  # already sorted by (latency, power)
                if p.power_w < best_power:
                    frontier.append(p)
                    best_power = p.power_w
            self._pareto = frontier
        return list(self._pareto)

    def summary(self) -> Dict[str, float]:
        """Extent of the space: latency and power ranges."""
        lats = [p.latency_ms for p in self.points]
        pows = [p.power_w for p in self.points]
        return {
            "points": float(len(self.points)),
            "pareto_points": float(len(self.pareto())),
            "latency_min_ms": min(lats),
            "latency_max_ms": max(lats),
            "power_min_w": min(pows),
            "power_max_w": max(pows),
        }

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"<KernelDesignSpace {self.kernel_name!r} on {self.platform!r}: "
            f"{len(self)} pts ({int(s['pareto_points'])} Pareto), "
            f"lat [{s['latency_min_ms']:.1f}, {s['latency_max_ms']:.1f}] ms>"
        )
