"""Automatic pattern analysis (Section IV-A).

Given a kernel's PPG, this module characterizes:

* per-pattern data- and compute-parallelism (from buffer capacity, data
  type and access patterns / independent operators);
* inter-pattern communication intensity under the two transfer
  strategies (off-chip global memory vs. on-chip scratchpad/BRAM);
* fusion feasibility under an on-chip capacity constraint.

The result feeds both local and global optimization (Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .annotations import Pattern, PatternKind
from .ppg import Kernel

__all__ = [
    "PatternProfile",
    "CommunicationProfile",
    "KernelAnalysis",
    "analyze_kernel",
]

#: Effective on-chip bandwidth advantage over off-chip DRAM used when
#: estimating transfer strategies (scratchpad/BRAM vs. global memory).
ONCHIP_SPEEDUP = 10.0


@dataclass(frozen=True)
class PatternProfile:
    """Parallelism characterization of one pattern instance."""

    pattern: Pattern
    data_parallelism: int
    compute_parallelism: int
    arithmetic_intensity: float
    #: True when the pattern's parallelism cannot be fixed locally and must
    #: be resolved during global optimization (e.g. a Gather whose consumer
    #: parallelism is unknown — Section IV-B's "pending optimization").
    deferred: bool

    @property
    def bound(self) -> str:
        """Roofline classification: 'compute' or 'memory'."""
        return "compute" if self.arithmetic_intensity >= 4.0 else "memory"


@dataclass(frozen=True)
class CommunicationProfile:
    """Communication intensity of one producer/consumer pattern pair."""

    src: Pattern
    dst: Pattern
    bytes_moved: int
    #: Relative cost of routing through off-chip global memory.
    offchip_cost: float
    #: Relative cost if fused and kept in on-chip memory.
    onchip_cost: float

    @property
    def fusion_benefit(self) -> float:
        """Cost saved by fusing this pair (>= 0)."""
        return max(self.offchip_cost - self.onchip_cost, 0.0)


_DEFERRED_KINDS = frozenset({PatternKind.GATHER, PatternKind.SCATTER})


@dataclass
class KernelAnalysis:
    """Full automatic analysis of a kernel: parallelism + communication."""

    kernel: Kernel
    profiles: Dict[Pattern, PatternProfile] = field(default_factory=dict)
    communications: List[CommunicationProfile] = field(default_factory=list)

    @property
    def total_parallelism(self) -> int:
        """Upper bound of concurrently runnable operator instances."""
        return max(p.compute_parallelism for p in self.profiles.values())

    @property
    def deferred_patterns(self) -> List[Pattern]:
        """Patterns whose optimization is deferred to the global pass."""
        return [p.pattern for p in self.profiles.values() if p.deferred]

    def fusion_candidates(
        self, onchip_capacity_bytes: int
    ) -> List[CommunicationProfile]:
        """Pairs worth fusing, ranked by benefit, feasible under capacity.

        The capacity constraint mirrors Section IV-B: the number of
        adjacent patterns that can be fused is bounded by the on-chip
        memory capacity holding the intermediate tensors.
        """
        feasible = [
            c
            for c in self.communications
            if c.bytes_moved <= onchip_capacity_bytes and c.fusion_benefit > 0
        ]
        return sorted(feasible, key=lambda c: c.fusion_benefit, reverse=True)

    def resolve_deferred(self) -> Dict[Pattern, int]:
        """Resolve deferred (Gather/Scatter) parallelism from neighbours.

        A Gather adopts the data-parallelism of its consumers; a Scatter
        that of its producers — this fixes the scratchpad sizing the
        local pass had to postpone (the LSTM example in Section IV-B).
        """
        resolved: Dict[Pattern, int] = {}
        ppg = self.kernel.ppg
        for pattern in self.deferred_patterns:
            if pattern.kind == PatternKind.GATHER:
                neighbours = ppg.successors(pattern)
            else:
                neighbours = ppg.predecessors(pattern)
            if neighbours:
                par = max(self.profiles[n].compute_parallelism for n in neighbours)
            else:
                par = pattern.data_parallelism
            resolved[pattern] = max(par, 1)
        return resolved


def analyze_kernel(kernel: Kernel) -> KernelAnalysis:
    """Run Poly's automatic pattern analysis on a kernel.

    Walks the PPG, profiles every pattern from its CDFG and workload
    descriptor, then estimates communication intensity for every
    producer/consumer pair under both transfer strategies.
    """
    analysis = KernelAnalysis(kernel)

    for pattern, wl in zip(kernel.patterns, kernel.pattern_workloads):
        cdfg = kernel.cdfg(pattern)
        analysis.profiles[pattern] = PatternProfile(
            pattern=pattern,
            data_parallelism=pattern.data_parallelism,
            compute_parallelism=int(
                min(pattern.compute_parallelism, max(cdfg.ilp, 1.0) * wl.elements)
            ),
            arithmetic_intensity=wl.arithmetic_intensity,
            deferred=pattern.kind in _DEFERRED_KINDS,
        )

    for edge in kernel.ppg.edges:
        offchip = float(edge.bytes_moved)
        onchip = edge.bytes_moved / ONCHIP_SPEEDUP
        analysis.communications.append(
            CommunicationProfile(
                src=edge.src,
                dst=edge.dst,
                bytes_moved=edge.bytes_moved,
                offchip_cost=offchip,
                onchip_cost=onchip,
            )
        )

    return analysis
