"""Scheduler facades: Poly's two-step scheduler and the static baselines.

:class:`PolyScheduler` chains Step 1 (latency optimization) and Step 2
(energy-efficiency optimization) over the per-kernel design spaces; the
slack available to Step 2 shrinks automatically as device queues build,
which is how Poly "immediately shifts to higher performance mode" under
bursts (Section VI-C).

:class:`StaticScheduler` models the prior-work baseline [4]: all
kernels hard-mapped to one accelerator family with a single fixed
implementation (maximum energy efficiency if it meets the latency
bound, minimum latency otherwise), unchanged across load levels.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..hardware.pcie import PCIeLink
from ..obs.tracer import NULL_TRACER
from ..optim.design_point import KernelDesignSpace
from .energy_opt import EnergyOptimizer, EnergyStep
from .kernel_graph import KernelGraph
from .latency_opt import LatencyOptimizer
from .types import DeviceSlot, Schedule

__all__ = ["PolyScheduler", "StaticScheduler"]


class PolyScheduler:
    """Poly's runtime kernel scheduler (Section V)."""

    def __init__(
        self,
        design_spaces: Mapping[Tuple[str, str], KernelDesignSpace],
        latency_bound_ms: float,
        pcie: Optional[PCIeLink] = None,
        tracer=None,
    ) -> None:
        if latency_bound_ms <= 0:
            raise ValueError("latency bound must be positive")
        self.design_spaces = design_spaces
        self.latency_bound_ms = latency_bound_ms
        #: Observability hook; inert by default so untraced scheduling
        #: stays on the exact pre-instrumentation code path.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.latency_optimizer = LatencyOptimizer(design_spaces, pcie)
        self.energy_optimizer = EnergyOptimizer(
            design_spaces, self.latency_optimizer
        )

    def admission_check(
        self, graph: KernelGraph, devices: Sequence[DeviceSlot]
    ):
        """Lint the request against this scheduler's design spaces.

        Runs the runtime-layer rules only (QoS lower-bound feasibility,
        implementation coverage of the device pool); returns the
        :class:`~repro.lint.LintReport`.
        """
        from ..lint import LintContext, run_lint

        ctx = LintContext(
            design_spaces=self.design_spaces,
            qos_ms=self.latency_bound_ms,
            devices=tuple(devices),
        )
        return run_lint(graph, ctx, expand=False)

    def schedule(
        self, graph: KernelGraph, devices: Sequence[DeviceSlot]
    ) -> Tuple[Schedule, List[EnergyStep]]:
        """Run both steps; returns the final schedule and accepted swaps.

        ``devices`` carry their queueing horizons (``available_at_ms``),
        so the latency slack Step 2 can spend is what remains after
        queueing — under load the scheduler naturally degrades to pure
        latency optimization.
        """
        step1 = self.latency_optimizer.schedule(graph, devices)
        final, steps = self.energy_optimizer.optimize(
            graph, devices, step1, self.latency_bound_ms
        )
        self._trace_schedule(final, steps)
        return final, steps

    def _trace_schedule(
        self, schedule: Schedule, steps: List[EnergyStep]
    ) -> None:
        """Emit one ``sched.place`` per final assignment (the Eq. 2-4
        latency-pass decision after energy swaps) and one ``sched.swap``
        per accepted Eq. 5 swap."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        for a in sorted(schedule, key=lambda a: (a.start_ms, a.kernel_name)):
            tracer.emit(
                "sched.place",
                name=a.kernel_name,
                kernel=a.kernel_name,
                device=a.device_id,
                point=a.point.index,
                start_ms=round(a.start_ms, 6),
                end_ms=round(a.end_ms, 6),
            )
        for step in steps:
            tracer.emit(
                "sched.swap",
                name=step.kernel_name,
                kernel=step.kernel_name,
                device_before=step.device_before,
                device_after=step.device_after,
                point_before=step.before.index,
                point_after=step.after.index,
                energy_saved_mj=round(step.energy_saved_mj, 6),
                makespan_ms=round(step.makespan_ms, 6),
            )

    def min_latency_schedule(
        self, graph: KernelGraph, devices: Sequence[DeviceSlot]
    ) -> Schedule:
        """Step 1 only (used for capacity probing)."""
        return self.latency_optimizer.schedule(graph, devices)


class StaticScheduler:
    """Hard-mapped single-implementation baseline (Homo-GPU / Homo-FPGA).

    The implementation for every kernel is chosen *once*: the most
    energy-efficient design if the zero-load application latency meets
    the bound, else the minimum-latency design — and never changes with
    load (Section VI-A's baseline description).
    """

    def __init__(
        self,
        design_spaces: Mapping[Tuple[str, str], KernelDesignSpace],
        latency_bound_ms: float,
        pcie: Optional[PCIeLink] = None,
    ) -> None:
        if latency_bound_ms <= 0:
            raise ValueError("latency bound must be positive")
        self.latency_bound_ms = latency_bound_ms
        self._latency_optimizer = LatencyOptimizer(design_spaces, pcie)
        #: Per-graph frozen policy: graph name -> use_max_eff.  Keyed by
        #: name so each application's offline decision survives other
        #: graphs being scheduled through the same instance.
        self._fixed_choice: Dict[str, bool] = {}

    def schedule(
        self, graph: KernelGraph, devices: Sequence[DeviceSlot]
    ) -> Tuple[Schedule, List[EnergyStep]]:
        """Schedule with the frozen per-kernel implementation choice;
        a static baseline makes no energy swaps."""
        policy = self._fixed_choice.get(graph.name)
        if policy is None:
            # Freeze the policy on first use (offline decision), keeping
            # queueing headroom: the max-efficiency choice must fit well
            # inside the bound on idle devices.
            idle = [DeviceSlot(d.device_id, d.platform, d.device_type) for d in devices]
            trial = self._place(graph, idle, use_max_eff=True)
            policy = trial.makespan_ms <= 0.6 * self.latency_bound_ms
            self._fixed_choice[graph.name] = policy
        return self._place(graph, devices, policy), []

    def _place(
        self,
        graph: KernelGraph,
        devices: Sequence[DeviceSlot],
        use_max_eff: bool,
    ) -> Schedule:
        select = (
            KernelDesignSpace.max_efficiency
            if use_max_eff
            else KernelDesignSpace.min_latency
        )
        opt = self._latency_optimizer
        return opt.place(graph, devices, opt.each_device(devices, select))
