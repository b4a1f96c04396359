"""Application base: a named kernel DAG plus Table-II metadata.

Each of the six QoS-sensitive benchmarks (Table II) is an
:class:`Application`: a kernel graph whose kernels are parallel-pattern
compositions, the per-kernel design-space size targets from Table II,
and the 200 ms tail-latency bound used throughout the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..hardware.specs import DeviceType
from ..optim.design_point import KernelDesignSpace
from ..optim.dse import explore_application
from ..patterns.ppg import Kernel
from ..scheduler.kernel_graph import KernelGraph

__all__ = ["Application", "DEFAULT_QOS_MS"]

#: The paper's target tail-latency constraint (Section VI-A).
DEFAULT_QOS_MS = 200.0


@dataclass
class Application:
    """One QoS-sensitive benchmark.

    ``design_targets`` maps kernel name to Table II's ``# Designs``
    column: ``{kernel: {DeviceType.GPU: n, DeviceType.FPGA: m}}``.
    """

    name: str
    full_name: str
    graph: KernelGraph
    design_targets: Dict[str, Dict[DeviceType, int]]
    qos_ms: float = DEFAULT_QOS_MS

    def __post_init__(self) -> None:
        self.graph.validate()
        missing = set(self.graph.kernel_names) - set(self.design_targets)
        if missing:
            raise ValueError(
                f"application {self.name!r} lacks design targets for {missing}"
            )
        if self.qos_ms <= 0:
            raise ValueError("qos bound must be positive")

    @property
    def kernels(self) -> List[Kernel]:
        return self.graph.kernels

    @property
    def kernel_names(self) -> List[str]:
        return self.graph.kernel_names

    def dse_targets(self) -> Dict[Tuple[str, DeviceType], int]:
        """Targets in the shape :func:`explore_application` expects."""
        out: Dict[Tuple[str, DeviceType], int] = {}
        for kernel, per_dev in self.design_targets.items():
            for dev_type, count in per_dev.items():
                out[(kernel, dev_type)] = count
        return out

    def explore(
        self,
        specs: Sequence,
        strategy: str = "exhaustive",
        search=None,
        metrics=None,
    ) -> Dict[Tuple[str, str], KernelDesignSpace]:
        """Run the offline DSE for this application on the given platforms.

        ``strategy="guided"`` runs the budgeted successive-halving +
        genetic explorer under ``search``; ``metrics`` forwards to
        :func:`repro.optim.dse.explore_application`.
        """
        return explore_application(
            self.kernels, specs, self.dse_targets(), strategy=strategy,
            search=search, metrics=metrics,
        )

    def __repr__(self) -> str:
        return (
            f"<Application {self.name} ({self.full_name}): "
            f"{len(self.graph)} kernels, QoS {self.qos_ms:.0f} ms>"
        )
