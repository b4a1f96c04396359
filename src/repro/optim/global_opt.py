"""Global optimization pass (Section IV-B, step 2).

The global pass looks across patterns:

* **Fusion** — merge neighbouring patterns so their intermediate tensor
  stays in on-chip memory (scratchpad/pipes on GPUs, BRAM on FPGAs)
  instead of bouncing through global memory, subject to the on-chip
  capacity constraint;
* **Deferred resolution** — size the scratchpad/buffers of Gather and
  Scatter patterns from their (now known) neighbours' parallelism;
* **Transfer strategy** — decide, per PPG edge, on-chip vs. off-chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..hardware.specs import DeviceType
from ..patterns.analysis import KernelAnalysis
from ..patterns.annotations import Pattern
from ..patterns.ppg import Kernel

__all__ = ["FusionDecision", "GlobalPlan", "GlobalOptimizer"]


@dataclass(frozen=True)
class FusionDecision:
    """One fused producer/consumer pair and the traffic it saves."""

    src: Pattern
    dst: Pattern
    bytes_saved: int


@dataclass
class GlobalPlan:
    """Outcome of global optimization for one (kernel, device) pair."""

    kernel: Kernel
    device_type: DeviceType
    fusions: List[FusionDecision] = field(default_factory=list)
    resolved_parallelism: Dict[Pattern, int] = field(default_factory=dict)

    @property
    def fused_bytes(self) -> int:
        """Total inter-pattern traffic kept on chip."""
        return sum(f.bytes_saved for f in self.fusions)

    @property
    def fusion_fraction(self) -> float:
        """Fraction of intermediate traffic eliminated by fusion."""
        total = self.kernel.intermediate_bytes
        return self.fused_bytes / total if total else 0.0

    @property
    def worthwhile(self) -> bool:
        """Whether the fused variant deserves its own design points."""
        return self.fusion_fraction > 0.05


class GlobalOptimizer:
    """Makes cross-pattern decisions for one device family."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self.device_type = spec.device_type

    @property
    def onchip_capacity_bytes(self) -> int:
        """Usable on-chip memory for fused intermediates.

        GPUs: scratchpad per CU times a conservative CU share; FPGAs:
        the BRAM budget left after datapath buffers (~60%).
        """
        if self.device_type == DeviceType.GPU:
            # 64 KB per CU, ~32 CUs worth usable by one kernel.
            return int(self.spec.scratchpad_kb_per_cu * 1024 * 32)
        return int(self.spec.bram_bytes * 0.6)

    def plan(self, analysis: KernelAnalysis) -> GlobalPlan:
        """Build the global plan for the analyzed kernel: greedy
        capacity-bounded fusion plus deferred-pattern resolution (both
        per Section IV-B)."""
        plan = GlobalPlan(kernel=analysis.kernel, device_type=self.device_type)

        budget = self.onchip_capacity_bytes
        for cand in analysis.fusion_candidates(budget):
            if cand.bytes_moved <= budget:
                plan.fusions.append(
                    FusionDecision(cand.src, cand.dst, cand.bytes_moved)
                )
                budget -= cand.bytes_moved

        plan.resolved_parallelism = analysis.resolve_deferred()
        return plan
