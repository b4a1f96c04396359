"""Parallel Pattern Graph (PPG) — Section IV-A, Fig. 4(a).

A kernel may involve multiple parallel patterns; Poly represents the
kernel as a PPG whose nodes are pattern instances and whose edges are
data dependencies between patterns.  The PPG is the unit the *global*
optimization pass (fusion, transfer-strategy selection) operates on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from .annotations import Pattern, PatternKind, Workload
from .cdfg import CDFG, lower_pattern

__all__ = ["PPGEdge", "PPG", "Kernel"]


@dataclass(frozen=True)
class PPGEdge:
    """Data dependency between two patterns.

    ``bytes_moved`` is the size of the intermediate tensor; the global
    optimizer decides whether it travels through off-chip global memory
    or stays on chip after fusion (Section IV-B).
    """

    src: Pattern
    dst: Pattern
    bytes_moved: int

    def __post_init__(self) -> None:
        if self.bytes_moved < 0:
            raise ValueError("bytes_moved must be non-negative")


class PPG:
    """Parallel Pattern Graph of a single OpenCL kernel."""

    def __init__(self, name: str = "kernel") -> None:
        self.name = name
        self.graph = nx.DiGraph()

    # -- construction ------------------------------------------------------

    def add_pattern(self, pattern: Pattern) -> Pattern:
        """Insert a pattern node (idempotent)."""
        self.graph.add_node(pattern)
        return pattern

    def connect(
        self, src: Pattern, dst: Pattern, bytes_moved: Optional[int] = None
    ) -> PPGEdge:
        """Add a data-dependency edge; defaults to the producer's output size.

        Acyclicity is preserved incrementally: the edge ``src -> dst``
        closes a cycle iff ``src`` is already reachable *from* ``dst``,
        so a single reachability probe over ``dst``'s descendants
        suffices — no full-graph DAG re-check per insert.
        """
        if src not in self.graph or dst not in self.graph:
            raise KeyError("add both patterns to the PPG before connecting them")
        if nx.has_path(self.graph, dst, src):
            raise ValueError(
                f"edge {src.name} -> {dst.name} would create a cycle in PPG "
                f"{self.name!r}"
            )
        if bytes_moved is None:
            bytes_moved = src.output.nbytes
        edge = PPGEdge(src, dst, bytes_moved)
        self.graph.add_edge(src, dst, edge=edge)
        return edge

    def freeze(self) -> None:
        """Make the PPG read-only (idempotent): from then on
        :meth:`add_pattern`, :meth:`connect` and any direct ``graph``
        mutation raise :class:`networkx.NetworkXError`.

        A :class:`Kernel` freezes its PPG on construction because it
        stores aggregates derived from the graph, which an edit would
        leave stale; build a new PPG to change a kernel.
        """
        nx.freeze(self.graph)

    # -- queries -----------------------------------------------------------

    @property
    def patterns(self) -> List[Pattern]:
        """Patterns in topological order (stable for a given graph)."""
        return list(nx.topological_sort(self.graph))

    @property
    def edges(self) -> List[PPGEdge]:
        return [data["edge"] for _, _, data in self.graph.edges(data=True)]

    def successors(self, pattern: Pattern) -> List[Pattern]:
        return list(self.graph.successors(pattern))

    def predecessors(self, pattern: Pattern) -> List[Pattern]:
        return list(self.graph.predecessors(pattern))

    def edge_between(self, src: Pattern, dst: Pattern) -> PPGEdge:
        return self.graph.edges[src, dst]["edge"]

    def communication_bytes(self) -> int:
        """Total inter-pattern traffic (all through global memory before
        fusion) — the quantity global optimization attacks."""
        return sum(e.bytes_moved for e in self.edges)

    def sources(self) -> List[Pattern]:
        return [p for p in self.graph.nodes if self.graph.in_degree(p) == 0]

    def sinks(self) -> List[Pattern]:
        return [p for p in self.graph.nodes if self.graph.out_degree(p) == 0]

    def adjacent_pairs(self) -> List[Tuple[Pattern, Pattern]]:
        """Producer/consumer pairs — fusion candidates."""
        return [(u, v) for u, v in self.graph.edges]

    def validate(self) -> None:
        """Check PPG structural invariants."""
        if self.graph.number_of_nodes() == 0:
            raise ValueError(f"PPG {self.name!r} is empty")
        if not nx.is_directed_acyclic_graph(self.graph):
            raise ValueError(f"PPG {self.name!r} must be acyclic")

    def __len__(self) -> int:
        return self.graph.number_of_nodes()

    def __repr__(self) -> str:
        return (
            f"<PPG {self.name!r}: {len(self)} patterns, "
            f"{self.graph.number_of_edges()} deps>"
        )


class Kernel:
    """An OpenCL kernel: a named PPG plus its lowered CDFGs.

    This is the unit of design-space exploration (one design space per
    kernel per device, Table II) and of runtime scheduling (one node in
    the application kernel graph, Section V).

    Construction freezes the PPG and derives every aggregate the
    analytical models read exactly once: the topological pattern order,
    the per-pattern workloads, the kernel-level workload summary and
    the traffic/parallelism figures.  The models run per candidate
    config in the DSE and per fresh node in the simulator, so they read
    stored values instead of re-walking the graph on every call.
    """

    def __init__(
        self,
        name: str,
        ppg: PPG,
        platform_bias: Optional[Dict] = None,
    ) -> None:
        ppg.validate()
        ppg.freeze()
        self.name = name
        self.ppg = ppg
        self._cdfgs: Dict[Pattern, CDFG] = {}
        #: Calibration multipliers on modelled latency, keyed by
        #: :class:`~repro.hardware.specs.DeviceType`.  The analytical
        #: models are parameterized from public datasheets only; these
        #: constants absorb the per-kernel residual against the paper's
        #: measured hardware (toolchain quality, kernel-specific code
        #: generation) so the reproduced trade-off shapes match the
        #: published ones.  They scale latency only — knob trends and
        #: power still come from the models.
        self.platform_bias = dict(platform_bias or {})
        #: ``(digest, bias items)`` of :meth:`model_signature`.
        self._signature: Optional[Tuple[str, Tuple]] = None

        patterns = tuple(ppg.patterns)
        workloads = tuple(p.workload for p in patterns)
        self._patterns = patterns
        self._workloads = workloads
        kinds: List[PatternKind] = []
        for p in patterns:
            if p.kind not in kinds:
                kinds.append(p.kind)
        self._pattern_kinds = tuple(kinds)
        self._total_ops = sum(wl.total_ops for wl in workloads)
        srcs, snks = ppg.sources(), ppg.sinks()
        bytes_in = sum(sum(t.nbytes for t in p.inputs) for p in srcs)
        bytes_out = sum(p.output.nbytes for p in snks)
        self._io_bytes = bytes_in + bytes_out
        self._intermediate_bytes = ppg.communication_bytes()
        self._max_data_parallelism = max(p.data_parallelism for p in patterns)
        self._resident_stationary_bytes = self._resident(True)
        self._resident_streamed_bytes = self._resident(False)
        elements = max(wl.elements for wl in workloads)
        self._summary = Workload(
            elements=elements,
            ops_per_element=self._total_ops / elements,
            bytes_in=bytes_in,
            bytes_out=bytes_out,
            op_kind=workloads[0].op_kind,
            access_regularity=min(wl.access_regularity for wl in workloads),
            sequential_steps=max(wl.sequential_steps for wl in workloads),
        )

    def latency_bias(self, device_type) -> float:
        """Calibration multiplier for one device family (default 1.0)."""
        return float(self.platform_bias.get(device_type, 1.0))

    def cdfg(self, pattern: Pattern) -> CDFG:
        """Lazily lower a pattern to its CDFG (cached)."""
        if pattern not in self._cdfgs:
            if pattern not in self.ppg.graph:
                raise KeyError(f"{pattern!r} is not part of kernel {self.name!r}")
            self._cdfgs[pattern] = lower_pattern(pattern)
        return self._cdfgs[pattern]

    @property
    def patterns(self) -> List[Pattern]:
        """Patterns in topological order."""
        return list(self._patterns)

    @property
    def pattern_workloads(self) -> Tuple[Workload, ...]:
        """Workload descriptor of each pattern, aligned with :attr:`patterns`."""
        return self._workloads

    @property
    def pattern_kinds(self) -> Tuple[PatternKind, ...]:
        """Distinct pattern kinds, in first-appearance order (Table II)."""
        return self._pattern_kinds

    # -- aggregate workload, consumed by the hardware models ---------------

    @property
    def total_ops(self) -> float:
        """Total arithmetic operations per kernel invocation."""
        return self._total_ops

    @property
    def io_bytes(self) -> int:
        """External input + output bytes (excludes inter-pattern traffic)."""
        return self._io_bytes

    @property
    def intermediate_bytes(self) -> int:
        """Inter-pattern traffic (fusion target)."""
        return self._intermediate_bytes

    @property
    def max_data_parallelism(self) -> int:
        return self._max_data_parallelism

    def _resident(self, stationary: bool) -> int:
        seen: Dict[str, int] = {}
        for pattern in self._patterns:
            for t in pattern.inputs:
                if t.resident and t.stationary == stationary:
                    seen[t.name] = t.nbytes
        return sum(seen.values())

    @property
    def resident_bytes(self) -> int:
        """Total parameter/state bytes (deduplicated by tensor name).

        These persist across invocations and are re-read every
        sequential step; see :class:`~repro.patterns.annotations.Tensor`.
        """
        return self._resident_stationary_bytes + self._resident_streamed_bytes

    @property
    def resident_stationary_bytes(self) -> int:
        """Resident bytes reused unchanged by every step (LSTM weights):
        an FPGA pins a compressed copy in BRAM once."""
        return self._resident_stationary_bytes

    @property
    def resident_streamed_bytes(self) -> int:
        """Resident bytes where each step needs a different slice
        (per-layer DNN weights): streamed per step on all platforms."""
        return self._resident_streamed_bytes

    def workload_summary(self) -> Workload:
        """Aggregate workload descriptor for the whole kernel."""
        return self._summary

    # -- model signature -----------------------------------------------------

    def model_signature(self) -> str:
        """Stable digest of everything the analytical models read.

        Covers the per-pattern workload descriptors, the kernel-level
        aggregates (ops, I/O, intermediate and resident traffic,
        parallelism) and the calibration bias table — the full input
        surface of the GPU/FPGA models.  Two kernels with equal
        signatures are indistinguishable to the models.

        The digest is memoized against the bias table's items: the
        bias is the one model input that callers rebind or edit in
        place, so any change to it recomputes the digest.
        """
        bias_items = tuple(self.platform_bias.items())
        memo = self._signature
        if memo is not None and memo[1] == bias_items:
            return memo[0]
        parts = [self.name]
        for pattern, wl in zip(self._patterns, self._workloads):
            parts.append(
                f"{pattern.kind.value}|{pattern.data_parallelism}|"
                f"{wl.elements}|{wl.ops_per_element!r}|{wl.bytes_in}|"
                f"{wl.bytes_out}|{wl.op_kind}|{wl.access_regularity!r}|"
                f"{wl.sequential_steps}"
            )
        parts.append(
            f"agg|{self._total_ops!r}|{self._io_bytes}|"
            f"{self._intermediate_bytes}|{self._resident_stationary_bytes}|"
            f"{self._resident_streamed_bytes}|{self._max_data_parallelism}|"
            f"{len(self._patterns)}"
        )
        bias = sorted(
            (getattr(k, "value", str(k)), float(v)) for k, v in bias_items
        )
        parts.append(f"bias|{bias!r}")
        sig = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        self._signature = (sig, bias_items)
        return sig

    def __repr__(self) -> str:
        kinds = ",".join(k.value for k in self.pattern_kinds)
        return f"<Kernel {self.name!r}: [{kinds}], {self.total_ops/1e6:.2f} Mops>"
