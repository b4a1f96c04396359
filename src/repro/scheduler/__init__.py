"""Runtime kernel scheduler (Section V): priority lists, the two
optimization steps, the system monitor and the static baselines."""

from .energy_opt import EnergyOptimizer, EnergyStep
from .kernel_graph import KernelGraph
from .latency_opt import LatencyOptimizer
from .monitor import SystemMonitor
from .priority import latency_priorities, min_latency_ms, priority_order
from .scheduler import PolyScheduler, StaticScheduler
from .types import Assignment, DeviceSlot, Schedule

__all__ = [
    "KernelGraph",
    "DeviceSlot",
    "Assignment",
    "Schedule",
    "LatencyOptimizer",
    "EnergyOptimizer",
    "EnergyStep",
    "PolyScheduler",
    "StaticScheduler",
    "SystemMonitor",
    "latency_priorities",
    "min_latency_ms",
    "priority_order",
]
