"""Datacenter runtime substrate: cluster configs, load generation, the
leaf-node simulator, metrics, traces and the TCO model."""

from .cluster import (
    DEFAULT_POWER_CAP_W,
    SchedulingPolicy,
    SETTINGS,
    SystemConfig,
    provision,
    setting,
)
from .engine import EventHeapEngine
from .loadgen import (
    constant_arrivals,
    flash_crowd_arrivals,
    pareto_poisson_arrivals,
    poisson_arrivals,
    trace_arrivals,
)
from .metrics import (
    availability,
    energy_proportionality,
    ideal_power_curve,
    max_throughput_under_qos,
    mean_recovery_ms,
    percentile_latency,
    tail_latency_p99,
    violation_ratio,
)
from .node import AcceleratorInstance, ExecutionRecord, LeafNode, RequestRecord
from .simulation import SimulationResult, run_simulation
from .tco import FleetTCO, TCOModel, TCOParameters
from .trace import UtilizationTrace, load_trace_csv, synthesize_google_trace

__all__ = [
    "SystemConfig",
    "SchedulingPolicy",
    "provision",
    "setting",
    "SETTINGS",
    "DEFAULT_POWER_CAP_W",
    "EventHeapEngine",
    "constant_arrivals",
    "poisson_arrivals",
    "trace_arrivals",
    "pareto_poisson_arrivals",
    "flash_crowd_arrivals",
    "LeafNode",
    "AcceleratorInstance",
    "ExecutionRecord",
    "RequestRecord",
    "SimulationResult",
    "run_simulation",
    "percentile_latency",
    "tail_latency_p99",
    "violation_ratio",
    "energy_proportionality",
    "ideal_power_curve",
    "max_throughput_under_qos",
    "availability",
    "mean_recovery_ms",
    "TCOModel",
    "TCOParameters",
    "FleetTCO",
    "UtilizationTrace",
    "synthesize_google_trace",
    "load_trace_csv",
]
