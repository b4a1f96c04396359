"""Compile-time optimization: Table-I knobs, local/global passes, DSE.

Implements Poly's offline kernel analysis component (Section IV): the
per-pattern optimization options, the local and global optimization
passes, analytical-model-driven design space exploration and Pareto
frontier extraction.
"""

from .design_point import DesignPoint, KernelDesignSpace
from .dse import (
    KnobSpace,
    enumerate_configs,
    explore_application,
    explore_kernel,
)
from .global_opt import FusionDecision, GlobalOptimizer, GlobalPlan
from .knobs import applicable_knobs, knob_candidates
from .local_opt import LocalOptimizer, LocalPlan
from .search import (
    GenerationStats,
    SearchConfig,
    SearchStats,
    explore_kernel_guided,
    space_hypervolume,
)

__all__ = [
    "DesignPoint",
    "KernelDesignSpace",
    "explore_kernel",
    "explore_application",
    "explore_kernel_guided",
    "enumerate_configs",
    "KnobSpace",
    "LocalOptimizer",
    "LocalPlan",
    "GlobalOptimizer",
    "GlobalPlan",
    "FusionDecision",
    "knob_candidates",
    "applicable_knobs",
    "SearchConfig",
    "SearchStats",
    "GenerationStats",
    "space_hypervolume",
]
