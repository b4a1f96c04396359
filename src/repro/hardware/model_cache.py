"""Memoized analytical-model evaluation for the DSE hot path.

The paper's pitch is that the analytical models make design-space
exploration cheap (Section IV-C); this module makes *repeated*
exploration nearly free.  Every (kernel, platform, config) evaluation —
feasibility plus the latency/power estimate — is memoized behind a key
of the kernel's *model-relevant signature*, the platform name and the
(hashable) :class:`~repro.hardware.config.ImplConfig`.

Keying on a structural signature rather than object identity means a
kernel rebuilt from the same annotations hits the cache, while any
change to workload, tensors or calibration bias misses it (natural
invalidation).  The cache is per-process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..patterns.ppg import Kernel
from .config import ImplConfig
from .specs import DeviceType
from .fpga_model import FPGAModel
from .gpu_model import GPUModel

__all__ = [
    "CachedEstimate",
    "ModelEvalCache",
    "kernel_signature",
    "clear_model_cache",
    "model_cache",
]


@dataclass(frozen=True)
class CachedEstimate:
    """The model outputs the DSE consumes, in cacheable form.

    ``feasible`` is always True for GPUs; for FPGAs it is the placement
    check, and infeasible entries carry NaN estimates (they are never
    turned into design points).
    """

    feasible: bool
    latency_ms: float
    active_power_w: float


def kernel_signature(kernel: Kernel) -> str:
    """Stable digest of everything the analytical models read.

    See :meth:`~repro.patterns.ppg.Kernel.model_signature`, which owns
    the digest and its memo.  Two kernels with equal signatures are
    indistinguishable to :class:`GPUModel`/:class:`FPGAModel`.
    """
    return kernel.model_signature()


class ModelEvalCache:
    """Thread-safe memo table for analytical model evaluations."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str, ImplConfig, int], CachedEstimate] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: Counters in a bound obs registry, updated alongside the ints
        #: (``None`` until :meth:`bind_metrics`).
        self._metrics = None

    # -- the memoized evaluation --------------------------------------------

    def evaluate(
        self, kernel: Kernel, spec, config: ImplConfig, batch: int = 1
    ) -> CachedEstimate:
        """Feasibility + latency/power of one candidate, memoized."""
        key = (kernel.model_signature(), spec.name, config, batch)
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self.hits += 1
                if self._metrics is not None:
                    self._metrics[0].inc()
                return hit
            self.misses += 1
            if self._metrics is not None:
                self._metrics[1].inc()
        if spec.device_type == DeviceType.FPGA:
            model = FPGAModel(spec)
            if not model.feasible(kernel, config):
                entry = CachedEstimate(False, float("nan"), float("nan"))
            else:
                est = model.estimate(kernel, config, batch)
                entry = CachedEstimate(True, est.latency_ms, est.active_power_w)
        else:
            gpu_est = GPUModel(spec).estimate(kernel, config, batch)
            entry = CachedEstimate(True, gpu_est.latency_ms, gpu_est.active_power_w)
        with self._lock:
            self._entries[key] = entry
        return entry

    # -- bulk access (vectorized DSE path) ------------------------------------

    def get_many(
        self, kernel: Kernel, spec, configs: Sequence[ImplConfig], batch: int = 1
    ) -> Tuple[List[Optional[CachedEstimate]], List[int]]:
        """Bulk lookup: cached entries plus the indices still to compute.

        Counter semantics mirror a scalar :meth:`evaluate` loop exactly:
        each config is looked up in order, and a *duplicate* of a miss
        earlier in the same batch counts as a hit (the scalar loop would
        find the entry its first occurrence stored).  Duplicate
        positions are returned as ``None`` alongside the first
        occurrence's index in ``miss_index``; :meth:`evaluate_many`
        back-fills them once the misses are computed.
        """
        sig = kernel.model_signature()
        name = spec.name
        results: List[Optional[CachedEstimate]] = [None] * len(configs)
        miss_index: List[int] = []
        hits = misses = 0
        with self._lock:
            pending = set()
            for i, config in enumerate(configs):
                key = (sig, name, config, batch)
                entry = self._entries.get(key)
                if entry is not None:
                    results[i] = entry
                    hits += 1
                elif key in pending:
                    hits += 1
                else:
                    pending.add(key)
                    miss_index.append(i)
                    misses += 1
            self.hits += hits
            self.misses += misses
            if self._metrics is not None:
                self._metrics[0].inc(hits)
                self._metrics[1].inc(misses)
        return results, miss_index

    def put_many(
        self,
        kernel: Kernel,
        spec,
        configs: Sequence[ImplConfig],
        entries: Sequence[CachedEstimate],
        batch: int = 1,
    ) -> None:
        """Bulk store of computed entries (no counter changes, like the
        store half of :meth:`evaluate`)."""
        if len(configs) != len(entries):
            raise ValueError("configs and entries must have equal length")
        sig = kernel.model_signature()
        name = spec.name
        with self._lock:
            for config, entry in zip(configs, entries):
                self._entries[(sig, name, config, batch)] = entry

    def evaluate_many(
        self, kernel: Kernel, spec, configs: Sequence[ImplConfig], batch: int = 1
    ) -> List[CachedEstimate]:
        """Bulk memoized evaluation: one vectorized model call per batch.

        Splits ``configs`` into cached and uncached via :meth:`get_many`,
        evaluates all misses in a single
        :meth:`~repro.hardware.gpu_model.GPUModel.estimate_batch` /
        :meth:`~repro.hardware.fpga_model.FPGAModel.estimate_batch`
        call (float-identical to the scalar path), and stores the new
        entries.  Counters and returned estimates are exactly those a
        scalar :meth:`evaluate` loop would produce.
        """
        results, miss_index = self.get_many(kernel, spec, configs, batch)
        if miss_index:
            miss_configs = [configs[i] for i in miss_index]
            if spec.device_type == DeviceType.FPGA:
                feasible, lat, power = FPGAModel(spec).estimate_batch(
                    kernel, miss_configs, batch
                )
                entries = [
                    CachedEstimate(bool(f), float(l), float(p))
                    for f, l, p in zip(feasible, lat, power)
                ]
            else:
                lat, power = GPUModel(spec).estimate_batch(
                    kernel, miss_configs, batch
                )
                entries = [
                    CachedEstimate(True, float(l), float(p))
                    for l, p in zip(lat, power)
                ]
            self.put_many(kernel, spec, miss_configs, entries, batch)
            for i, entry in zip(miss_index, entries):
                results[i] = entry
        if any(r is None for r in results):
            # In-batch duplicates of a miss: resolve from the now-filled
            # table.
            sig = kernel.model_signature()
            with self._lock:
                for i, r in enumerate(results):
                    if r is None:
                        results[i] = self._entries[(sig, spec.name, configs[i], batch)]
        return results  # type: ignore[return-value]

    # -- bookkeeping ---------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Mirror the hit/miss counters into an obs registry.

        The registry's counters advance *alongside* the plain ints from
        the moment of binding (they do not backfill earlier activity —
        call before exploration to capture a full run).  Binding a new
        registry replaces the previous one; ``bind_metrics(None)``
        detaches.
        """
        if registry is None:
            with self._lock:
                self._metrics = None
            return
        counters = (
            registry.counter("model_cache_hits_total"),
            registry.counter("model_cache_misses_total"),
        )
        with self._lock:
            self._metrics = counters

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "size": float(len(self._entries)),
            "hit_rate": self.hits / total if total else 0.0,
        }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"<ModelEvalCache: {int(s['size'])} entries, "
            f"{int(s['hits'])} hits / {int(s['misses'])} misses>"
        )


#: Process-wide cache instance the DSE routes through.
model_cache = ModelEvalCache()


def clear_model_cache() -> None:
    """Drop all memoized evaluations and reset the counters."""
    model_cache.clear()
