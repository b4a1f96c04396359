"""Local optimization pass (Section IV-B, step 1).

For each parallel pattern, Poly prepares the suite of optimization
options from Table I and applies the ones that can be decided from the
pattern's own CDFG: parallelism-driven knob bounds, memory-optimization
eligibility, and the pending ("deferred") decisions that must wait for
the global pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..hardware.specs import DeviceType
from ..patterns.analysis import KernelAnalysis
from ..patterns.annotations import Pattern, PatternKind
from ..patterns.ppg import Kernel
from .knobs import knob_candidates

__all__ = ["LocalPlan", "LocalOptimizer"]


@dataclass
class LocalPlan:
    """Outcome of local optimization for one (kernel, device) pair.

    * ``candidates`` — per-knob candidate values after parallelism
      pruning (e.g. unroll factors beyond the pattern's compute
      parallelism are dropped);
    * ``forced`` — knob values the pass fixes outright (e.g. coalescing
      is always beneficial once a Gather/Scatter is present);
    * ``pending`` — patterns whose sizing decisions are deferred to the
      global pass (Section IV-B's scratchpad example).
    """

    kernel: Kernel
    device_type: DeviceType
    candidates: Dict[str, Tuple] = field(default_factory=dict)
    forced: Dict[str, object] = field(default_factory=dict)
    pending: List[Pattern] = field(default_factory=list)

    @property
    def space_size(self) -> int:
        """Number of raw combinations before global options multiply in."""
        size = 1
        for values in self.candidates.values():
            size *= len(values)
        return size


class LocalOptimizer:
    """Applies Table-I local optimizations to every pattern of a kernel."""

    def __init__(self, device_type: DeviceType) -> None:
        self.device_type = device_type

    def plan(self, analysis: KernelAnalysis) -> LocalPlan:
        """Build the local optimization plan for the analyzed kernel."""
        kernel = analysis.kernel
        candidates = dict(knob_candidates(kernel.pattern_kinds, self.device_type))
        plan = LocalPlan(kernel=kernel, device_type=self.device_type)

        self._prune_parallelism(kernel, analysis, candidates)
        plan.forced.update(self._force_obvious(kernel, analysis, candidates))
        plan.candidates = candidates
        plan.pending = analysis.deferred_patterns
        return plan

    # -- internals -----------------------------------------------------------

    def _prune_parallelism(
        self,
        kernel: Kernel,
        analysis: KernelAnalysis,
        candidates: Dict[str, Tuple],
    ) -> None:
        """Drop spatial-parallelism candidates the kernel cannot use.

        The automatic pattern analysis bounds compute parallelism; knob
        values whose lane count exceeds it only waste resources, so the
        local pass removes them (this is what keeps Table II's spaces in
        the tens-to-hundreds rather than thousands).
        """
        max_par = analysis.total_parallelism
        if "unroll" in candidates:
            kept = tuple(v for v in candidates["unroll"] if v <= max(max_par, 1))
            candidates["unroll"] = kept or (1,)
        if "compute_units" in candidates:
            kept = tuple(
                v for v in candidates["compute_units"] if v <= max(max_par, 1)
            )
            candidates["compute_units"] = kept or (1,)
        if "work_group_size" in candidates:
            kept = tuple(
                v for v in candidates["work_group_size"] if v <= max(max_par, 64)
            )
            candidates["work_group_size"] = kept or (64,)

    def _force_obvious(
        self,
        kernel: Kernel,
        analysis: KernelAnalysis,
        candidates: Dict[str, Tuple],
    ) -> Dict[str, object]:
        """Fix knobs whose best value is unconditional for this kernel.

        Memory coalescing (GPU) and burst/double-buffering (FPGA) never
        hurt once an irregular-access pattern is present, so the pass
        pins them instead of doubling the space.
        """
        forced: Dict[str, object] = {}
        kinds = set(kernel.pattern_kinds)
        irregular = kinds & {PatternKind.GATHER, PatternKind.SCATTER}
        if irregular and self.device_type == DeviceType.GPU:
            if "memory_coalescing" in candidates:
                candidates.pop("memory_coalescing")
                forced["memory_coalescing"] = True
        if irregular and self.device_type == DeviceType.FPGA:
            if "double_buffer" in candidates:
                candidates.pop("double_buffer")
                forced["double_buffer"] = True
        # A pure-Pipeline kernel on FPGA is always worth pipelining.
        if kinds == {PatternKind.PIPELINE} and self.device_type == DeviceType.FPGA:
            if "pipelined" in candidates:
                candidates.pop("pipelined")
                forced["pipelined"] = True
        return forced
