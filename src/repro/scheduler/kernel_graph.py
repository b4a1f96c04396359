"""Application kernel graph G=(K,E) (Section V).

Before making runtime decisions Poly builds a directed acyclic kernel
graph from the application's OpenCL code: nodes are kernels, edges are
inter-kernel data dependencies annotated with the bytes that must cross
PCIe when producer and consumer land on different accelerators.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import networkx as nx

from ..patterns.ppg import Kernel

__all__ = ["KernelGraph"]


class KernelGraph:
    """DAG of kernels with data-volume-annotated edges."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.graph = nx.DiGraph()
        self._kernels: Dict[str, Kernel] = {}
        #: Bumped on every structural mutation; guards memoized products
        #: (the structural signature, cached priority ranks) so a graph
        #: edited after scheduling cannot serve stale cache entries.
        self._version = 0
        self._signature: Optional[Tuple[int, str]] = None

    # -- construction ------------------------------------------------------

    def add_kernel(self, kernel: Kernel) -> Kernel:
        """Add a kernel node; names must be unique within the graph."""
        if kernel.name in self._kernels:
            raise ValueError(f"duplicate kernel name {kernel.name!r}")
        self._kernels[kernel.name] = kernel
        self.graph.add_node(kernel.name)
        self._version += 1
        return kernel

    def connect(self, src: str, dst: str, nbytes: Optional[int] = None) -> None:
        """Add dependency ``src -> dst`` moving ``nbytes`` of data.

        Defaults to the producer kernel's output size.
        """
        if src not in self._kernels or dst not in self._kernels:
            raise KeyError(f"unknown kernel in edge {src!r} -> {dst!r}")
        # The edge closes a cycle iff src is already reachable from dst;
        # probing dst's descendants avoids a full DAG re-check per insert.
        if nx.has_path(self.graph, dst, src):
            raise ValueError(f"edge {src!r} -> {dst!r} creates a cycle")
        if nbytes is None:
            producer = self._kernels[src]
            nbytes = sum(p.output.nbytes for p in producer.ppg.sinks())
        if nbytes < 0:
            raise ValueError("edge bytes must be non-negative")
        self.graph.add_edge(src, dst, nbytes=nbytes)
        self._version += 1

    # -- queries -----------------------------------------------------------

    @property
    def version(self) -> int:
        """Structural revision counter (add_kernel/connect bump it)."""
        return self._version

    def structural_signature(self) -> str:
        """Stable digest of the graph *structure*: name, kernel names,
        and byte-annotated edges.

        This is the key the priority-rank memo and the cluster
        dispatcher's locality signal use: two graphs with equal
        signatures present the identical scheduling problem (given equal
        design spaces).
        The digest is memoized against :attr:`version`, so repeated
        lookups cost a tuple compare, not a hash of the whole graph.
        """
        cached = self._signature
        if cached is not None and cached[0] == self._version:
            return cached[1]
        parts = [self.name]
        parts.extend(sorted(self._kernels))
        parts.extend(
            f"{u}->{v}|{d['nbytes']}"
            for u, v, d in sorted(self.graph.edges(data=True))
        )
        sig = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        self._signature = (self._version, sig)
        return sig

    def kernel(self, name: str) -> Kernel:
        return self._kernels[name]

    @property
    def kernels(self) -> List[Kernel]:
        """Kernels in topological order."""
        return [self._kernels[n] for n in nx.topological_sort(self.graph)]

    @property
    def kernel_names(self) -> List[str]:
        return [k.name for k in self.kernels]

    def successors(self, name: str) -> List[str]:
        return list(self.graph.successors(name))

    def predecessors(self, name: str) -> List[str]:
        return list(self.graph.predecessors(name))

    def edge_bytes(self, src: str, dst: str) -> int:
        return self.graph.edges[src, dst]["nbytes"]

    def sources(self) -> List[str]:
        return [n for n in self.graph.nodes if self.graph.in_degree(n) == 0]

    def sinks(self) -> List[str]:
        return [n for n in self.graph.nodes if self.graph.out_degree(n) == 0]

    def paths(self) -> List[List[str]]:
        """All source->sink kernel execution paths (Fig. 6's two ASR paths)."""
        out: List[List[str]] = []
        for s in self.sources():
            for t in self.sinks():
                out.extend(nx.all_simple_paths(self.graph, s, t))
        # Single-kernel graphs: path of one.
        if not out and len(self._kernels) == 1:
            out = [[next(iter(self._kernels))]]
        return out

    def validate(self) -> None:
        if not self._kernels:
            raise ValueError(f"kernel graph {self.name!r} is empty")
        if not nx.is_directed_acyclic_graph(self.graph):
            raise ValueError(f"kernel graph {self.name!r} has a cycle")

    def __len__(self) -> int:
        return len(self._kernels)

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def __repr__(self) -> str:
        return (
            f"<KernelGraph {self.name!r}: {len(self)} kernels, "
            f"{self.graph.number_of_edges()} edges>"
        )
