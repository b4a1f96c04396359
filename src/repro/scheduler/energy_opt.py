"""Step 2 — energy-efficiency optimization (Section V).

Starting from the Step-1 (minimum-latency) schedule, compute the
latency slack ``LB - L`` and spend it greedily: rank kernels by the
energy priority

.. math::

    W_E(k_i) = \\max_r \\; E(k_{i_0}^{r_0}) - E(k_i^r)
             = \\max_r \\; P(k_{i_0}^{r_0}) T(k_{i_0}^{r_0})
                        - P(k_i^r) T(k_i^r)

(the maximum per-invocation energy reduction any alternative
implementation offers; the paper's Eq. 5 prints the product of the
power and latency *differences*, which is dimensionally an energy but
goes negative exactly when a swap trades latency for power — we use
the energy-reduction form, which matches the prose "indicates the
maximum energy reduction we could achieve") and repeatedly apply the
best swap that keeps the end-to-end latency within the bound.  Swaps
may move a kernel to a different device (Fig. 6's K4 GPU->FPGA move).

Floating-point subtraction is monotone, so the maximum over points of
``E0 - E`` is exactly ``E0`` minus the lowest ``E``: W_E is the current
energy less a per-kernel constant, the smallest
:meth:`~repro.optim.design_point.KernelDesignSpace.max_efficiency`
energy over the kernel's spaces on the device pool (clamped at 0, the
value with no cheaper point).  It is computed once per kernel per
iteration, without scanning any front.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..optim.design_point import DesignPoint, KernelDesignSpace
from .kernel_graph import KernelGraph
from .latency_opt import LatencyOptimizer
from .types import Assignment, DeviceSlot, Schedule

__all__ = ["EnergyOptimizer", "EnergyStep"]


class EnergyStep:
    """Record of one accepted swap (for Fig.-6-style reporting)."""

    def __init__(
        self,
        kernel_name: str,
        before: DesignPoint,
        after: DesignPoint,
        device_before: str,
        device_after: str,
        energy_saved_mj: float,
        makespan_ms: float,
    ) -> None:
        self.kernel_name = kernel_name
        self.before = before
        self.after = after
        self.device_before = device_before
        self.device_after = device_after
        self.energy_saved_mj = energy_saved_mj
        self.makespan_ms = makespan_ms

    def __repr__(self) -> str:
        move = (
            f"{self.device_before}->{self.device_after}"
            if self.device_before != self.device_after
            else self.device_after
        )
        return (
            f"<EnergyStep {self.kernel_name} r{self.before.index}->r"
            f"{self.after.index} [{move}] saves {self.energy_saved_mj:.1f} mJ, "
            f"makespan {self.makespan_ms:.1f} ms>"
        )


class EnergyOptimizer:
    """Greedy slack-driven implementation swapper (Step 2)."""

    #: Stop once the best remaining swap saves less than this much energy
    #: per invocation (guards against endless epsilon-churn).
    MIN_GAIN_MJ = 1e-6
    #: Hard cap on iterations; the space is finite so this never binds in
    #: practice, but it makes termination obvious.
    MAX_ITERS = 256
    #: Per-kernel latency guard: a swap may not slow a kernel beyond this
    #: multiple of its fastest implementation.  The bound-level check
    #: alone admits pathologically slow points whose queueing cost the
    #: single-request makespan cannot see.
    MAX_SLOWDOWN = 1.5

    def __init__(
        self,
        design_spaces: Mapping[Tuple[str, str], KernelDesignSpace],
        latency_optimizer: LatencyOptimizer,
    ) -> None:
        self.design_spaces = design_spaces
        self.latency_optimizer = latency_optimizer

    def optimize(
        self,
        graph: KernelGraph,
        devices: Sequence[DeviceSlot],
        schedule: Schedule,
        latency_bound_ms: float,
    ) -> Tuple[Schedule, List[EnergyStep]]:
        """Spend the latency slack on energy; returns the new schedule
        and the accepted swaps in order."""
        if latency_bound_ms <= 0:
            raise ValueError("latency bound must be positive")

        # W_E's per-kernel constant: the lowest energy of any of the
        # kernel's spaces on this device pool.
        lowest: Dict[str, float] = {}
        for a in schedule:
            spaces = [self.design_spaces.get((a.kernel_name, d.platform)) for d in devices]
            lowest[a.kernel_name] = min(
                (s.max_efficiency().energy_mj for s in spaces if s is not None),
                default=math.inf,
            )
        steps: List[EnergyStep] = []
        current = schedule
        for _ in range(self.MAX_ITERS):
            swap = self._best_swap(graph, devices, current, latency_bound_ms, lowest)
            if swap is None:
                break
            current, step = swap
            steps.append(step)
        return current, steps

    # -- internals -----------------------------------------------------------

    def _best_swap(
        self,
        graph: KernelGraph,
        devices: Sequence[DeviceSlot],
        schedule: Schedule,
        latency_bound_ms: float,
        lowest: Mapping[str, float],
    ) -> Optional[Tuple[Schedule, EnergyStep]]:
        """Find the highest-W_E kernel whose best swap fits the bound.

        Kernels are visited in descending W_E (Eq. 5); the first kernel
        owning a feasible, energy-saving swap wins the iteration.
        """
        w_e = {
            a.kernel_name: max(0.0, a.energy_mj - lowest[a.kernel_name])
            for a in schedule
        }
        ranked = sorted(schedule, key=lambda a: w_e[a.kernel_name], reverse=True)
        for assignment in ranked:
            if w_e[assignment.kernel_name] <= self.MIN_GAIN_MJ:
                break  # nothing below can do better (sorted)
            found = self._apply_best_candidate(
                graph, devices, schedule, assignment, latency_bound_ms
            )
            if found is not None:
                return found
        return None

    def _apply_best_candidate(
        self,
        graph: KernelGraph,
        devices: Sequence[DeviceSlot],
        schedule: Schedule,
        assignment: Assignment,
        latency_bound_ms: float,
    ) -> Optional[Tuple[Schedule, EnergyStep]]:
        """Try this kernel's candidates in descending energy savings;
        accept the first that keeps the retimed makespan within bound."""
        candidates: List[Tuple[float, DesignPoint, str]] = []
        for dev in devices:
            space = self.design_spaces.get((assignment.kernel_name, dev.platform))
            if space is None:
                continue
            guard = space.min_latency().latency_ms * self.MAX_SLOWDOWN
            for point in space.pareto():
                if point.latency_ms > guard:
                    continue
                saving = assignment.energy_mj - point.energy_mj
                if saving > self.MIN_GAIN_MJ:
                    candidates.append((saving, point, dev.device_id))
        candidates.sort(key=lambda t: t[0], reverse=True)

        choices: Dict[str, Tuple[DesignPoint, str]] = {
            a.kernel_name: (a.point, a.device_id) for a in schedule
        }
        for saving, point, device_id in candidates:
            choices[assignment.kernel_name] = (point, device_id)
            retimed = self.latency_optimizer.retime(graph, devices, choices)
            if retimed.makespan_ms <= latency_bound_ms:
                step = EnergyStep(
                    kernel_name=assignment.kernel_name,
                    before=assignment.point,
                    after=point,
                    device_before=assignment.device_id,
                    device_after=device_id,
                    energy_saved_mj=saving,
                    makespan_ms=retimed.makespan_ms,
                )
                return retimed, step
        return None
