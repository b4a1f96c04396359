"""Step 1 — latency optimization (Section V).

List scheduling driven by the latency priority list :math:`W_L`: pick
kernels in descending priority, compute the earliest starting time of
each (kernel, device) pair

.. math::

    EST(k_i, d_n) = \\max_{k_j \\in Pred(k_i)} T_{end}(k_j)
                    + T_{queue}(d_n)

(Eq. 4; we additionally charge the PCIe transfer when a predecessor
ran on a *different* device), then place the kernel where it finishes
earliest using the fastest implementation available on that device.
:meth:`LatencyOptimizer.place` is that loop, over any per-kernel
candidates: Step 2 retimes fixed choices with it, and the static
baselines place their frozen implementations with it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..hardware.pcie import PCIeLink
from ..optim.design_point import DesignPoint, KernelDesignSpace
from .kernel_graph import KernelGraph
from .priority import priority_order as _priority_order
from .types import Assignment, DeviceSlot, Schedule

__all__ = ["LatencyOptimizer"]

#: One kernel's placement candidates: ``(slot, point)`` pairs.
Options = Iterable[Tuple[DeviceSlot, DesignPoint]]


class LatencyOptimizer:
    """HEFT-style minimum-latency list scheduler (Step 1)."""

    def __init__(
        self,
        design_spaces: Mapping[Tuple[str, str], KernelDesignSpace],
        pcie: Optional[PCIeLink] = None,
    ) -> None:
        self.design_spaces = design_spaces
        self.pcie = pcie or PCIeLink()
        #: Memoized W_L rank orders keyed on (graph structural signature,
        #: platform set).  Design spaces and PCIe are fixed per instance,
        #: so the ranks are pure in those two inputs; the signature is
        #: version-guarded, so a mutated graph re-ranks automatically.
        self._rank_memo: Dict[Tuple[str, Tuple[str, ...]], List[str]] = {}

    # -- public API ----------------------------------------------------------

    def priority_order(
        self, graph: KernelGraph, platforms: Sequence[str]
    ) -> List[str]:
        """Eq. 2-3 descending-W_L kernel order, memoized.

        Every :meth:`place` call on a graph — Step 1, :meth:`retime`
        once per Step-2 swap candidate, the static baselines — ranks it
        identically, so one ranks table serves them all.  Callers must
        not mutate the returned list.
        """
        key = (graph.structural_signature(), tuple(platforms))
        order = self._rank_memo.get(key)
        if order is None:
            order = _priority_order(
                graph, self.design_spaces, platforms, self.pcie
            )
            self._rank_memo[key] = order
        return order

    def schedule(
        self, graph: KernelGraph, devices: Sequence[DeviceSlot]
    ) -> Schedule:
        """Produce the minimum-latency schedule for one application run."""
        graph.validate()
        if not devices:
            raise ValueError("no devices to schedule on")
        return self.place(
            graph, devices, self.each_device(devices, KernelDesignSpace.min_latency)
        )

    def retime(
        self,
        graph: KernelGraph,
        devices: Sequence[DeviceSlot],
        choices: Mapping[str, Tuple[DesignPoint, str]],
    ) -> Schedule:
        """Recompute the timetable for *fixed* (impl, device) choices.

        Used by the energy-optimization step: after swapping a kernel's
        implementation, only the timing needs recomputation — placement
        is given.  Kernels keep the Step-1 priority order on each device.
        """
        by_id = {d.device_id: d for d in devices}

        def fixed(name: str) -> Options:
            point, device_id = choices[name]
            return ((by_id[device_id], point),)

        return self.place(graph, devices, fixed)

    def each_device(
        self,
        devices: Sequence[DeviceSlot],
        select: Callable[[KernelDesignSpace], DesignPoint],
    ) -> Callable[[str], Options]:
        """:meth:`place` options: ``select(space)`` on every device
        holding a design space for the kernel, in device order."""
        spaces = self.design_spaces

        def options(name: str) -> Options:
            for dev in devices:
                space = spaces.get((name, dev.platform))
                if space is not None:
                    yield dev, select(space)

        return options

    def place(
        self,
        graph: KernelGraph,
        devices: Sequence[DeviceSlot],
        options: Callable[[str], Options],
    ) -> Schedule:
        """The list-scheduling loop of Step 1, Step-2 retiming and the
        static baselines.

        Walks the kernels in descending W_L (Eqs. 2-3) with one device
        availability table, seeded with each slot's queueing horizon.
        Each kernel goes to the ``(slot, point)`` candidate of
        ``options(name)`` that finishes earliest from its Eq. 4 start;
        the first strictly smaller finish wins.
        """
        order = self.priority_order(graph, sorted({d.platform for d in devices}))
        available = {d.device_id: d.available_at_ms for d in devices}
        placed: Dict[str, Assignment] = {}

        for name in order:
            best: Optional[Assignment] = None
            for dev, point in options(name):
                est = self._earliest_start(
                    name, dev, graph, placed, available[dev.device_id]
                )
                finish = est + point.latency_ms
                if best is None or finish < best.end_ms:
                    best = Assignment(name, point, dev.device_id, est, finish)
            if best is None:
                raise RuntimeError(
                    f"kernel {name!r} has no implementation on any device"
                )
            placed[name] = best
            available[best.device_id] = best.end_ms

        return Schedule(graph.name, list(placed.values()))

    # -- internals -----------------------------------------------------------

    def _earliest_start(
        self,
        kernel_name: str,
        device: DeviceSlot,
        graph: KernelGraph,
        placed: Mapping[str, Assignment],
        device_free_at: float,
    ) -> float:
        """Eq. 4 with cross-device transfer charging."""
        ready = 0.0
        for pred in graph.predecessors(kernel_name):
            pa = placed[pred]
            arrival = pa.end_ms
            if pa.device_id != device.device_id:
                nbytes = graph.edge_bytes(pred, kernel_name)
                arrival += self.pcie.device_to_device_ms(nbytes)
            ready = max(ready, arrival)
        return max(ready, device_free_at)
