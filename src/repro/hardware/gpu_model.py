"""Analytical GPU performance and power model (Section IV-C).

The paper drives its design-space exploration with the integrated GPU
power/performance model of Hong & Kim [49] and Harmonia [18].  We
implement the same style of model: execution time is the overlap of a
compute phase and a memory phase, where the achievable fractions of
peak are functions of occupancy (work-group size), unrolling, access
regularity and the memory optimizations of Table I; power splits into
idle and activity-proportional dynamic components, scaled by DVFS.

The model is used twice in this reproduction: (1) as the navigator of
the offline DSE, exactly as in the paper, and (2) as the *ground truth*
of the discrete-event simulator — with multiplicative noise injected by
the caller, as real executions deviate from it (the paper reports <6%
prediction error, Section VI-C).  Both read the one vectorized
implementation, :meth:`GPUModel.estimate_batch`: the DSE at batch 1
over a kernel's knob space, the simulator over one design point's
batch sizes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from ..patterns.ppg import Kernel
from .config import ImplConfig
from .specs import GPUSpec

__all__ = ["GPUModel"]


class GPUModel:
    """Hong&Kim-style analytical model for one GPU platform."""

    #: Fraction of compute and memory phases that overlap (MWP/CWP overlap).
    OVERLAP = 0.75
    #: Peak-efficiency baseline for a plain (un-optimized) kernel.
    BASE_COMPUTE_EFF = 0.22
    #: Host/device synchronization cost between dependent phases, ms.
    STEP_SYNC_MS = 0.15
    #: Effective DRAM bandwidth fraction for fully coalesced access.
    COALESCED_BW_EFF = 0.80
    #: Effective bandwidth fraction for scattered access.
    SCATTERED_BW_EFF = 0.18

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec

    # -- occupancy / efficiency sub-models ----------------------------------

    def occupancy(self, config: ImplConfig, data_parallelism: int) -> float:
        """SM occupancy as a function of work-group size and problem size.

        Occupancy peaks around 128–256 work-items per group (enough warps
        to hide latency, no register spill) and collapses when the
        problem does not fill the machine.
        """
        wg = config.work_group_size
        if wg >= 128:
            wg_factor = 1.0 - 0.15 * (math.log2(wg / 256.0) ** 2) / 4.0
        else:
            wg_factor = 0.55 + 0.45 * (wg / 128.0)
        wg_factor = min(max(wg_factor, 0.2), 1.0)
        fill = min(data_parallelism / (self.spec.cores * 4.0), 1.0)
        return wg_factor * (0.25 + 0.75 * fill)

    def compute_efficiency(self, kernel: Kernel, config: ImplConfig) -> float:
        """Fraction of peak FLOP/s the kernel's compute phase achieves."""
        wl = kernel.workload_summary()
        occ = self.occupancy(config, kernel.max_data_parallelism)
        eff = self.BASE_COMPUTE_EFF * (0.6 + 0.4 * occ) / 0.6
        # Unrolling exposes ILP inside each thread (diminishing returns).
        eff *= 1.0 + 0.35 * math.log2(min(config.unroll, 16)) / 4.0
        # Persistent-kernel software pipelining hides launch bubbles.
        if config.pipelined:
            eff *= 1.12
        # Irregular kernels stall their ALUs on divergent access.
        eff *= 0.5 + 0.5 * wl.access_regularity
        # Kernels with many dependent phases run as chains of small
        # launches/grid syncs; pipeline bubbles cap the achievable rate
        # well below a monolithic GEMM's (cuDNN-era recurrent nets reach
        # ~10% of peak FLOP/s).
        cap = 0.30 if wl.sequential_steps > 8 else 0.85
        return min(eff, cap)

    def bandwidth_efficiency(self, kernel: Kernel, config: ImplConfig) -> float:
        """Fraction of peak DRAM bandwidth achieved."""
        wl = kernel.workload_summary()
        base = (
            self.SCATTERED_BW_EFF
            + (self.COALESCED_BW_EFF - self.SCATTERED_BW_EFF) * wl.access_regularity
        )
        if config.memory_coalescing:
            # Index remapping (Fig. 5a) recovers most of the coalesced peak.
            base = max(base, 0.65 * self.COALESCED_BW_EFF + 0.35 * base)
        return min(base, self.COALESCED_BW_EFF)

    def _effective_bytes(
        self, kernel: Kernel, config: ImplConfig, batch: int, steps: int
    ) -> float:
        """Off-chip traffic for a batch, after memory optimizations.

        Activation traffic scales with the batch; *resident* parameter
        tensors (weights) are shared by the whole batch but — being far
        larger than any cache — must be re-streamed from DRAM on every
        dependent step.  This is why batching rescues GPU throughput on
        recurrent kernels: the weight stream is amortized over the
        batch (DjiNN [60] and the motivation of Section II-B).
        """
        resident = float(kernel.resident_bytes)
        activations = float(kernel.io_bytes) - resident
        if not config.fused:
            activations += kernel.intermediate_bytes
        if config.use_scratchpad:
            # __local staging captures intra-pattern reuse (stencil taps,
            # repeated gathers); model as a 35% traffic cut.
            activations *= 0.65
        # Stationary weights are re-read from DRAM each step (nothing
        # on-chip holds them); per-step weights are read once per step by
        # construction.  Either way: resident traffic = bytes x steps.
        return activations * batch + resident * steps

    # -- vectorized batch evaluation -----------------------------------------

    def estimate_batch(
        self,
        kernel: Kernel,
        configs: Sequence[ImplConfig],
        batch: Union[int, Sequence[int]] = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Latency and power of ``batch`` fused invocations, for many
        configs in one vectorized pass.

        ``batch`` is one size for every config, or one size per config
        (the simulator reads a design point's whole batch ladder in one
        call).  Batching amortizes the launch overhead and raises
        occupancy — the GPU behaviour the motivation section describes
        (GPUs need batches; FPGAs do not).

        Every sub-model that involves a transcendental or a branch
        (occupancy, compute/bandwidth efficiency, effective bytes,
        ``freq_scale ** 2.2``) is computed by the scalar methods once
        per unique knob tuple and broadcast by table lookup; the
        combining arithmetic is numpy float64, so a row's floats do not
        depend on the other rows.

        Returns ``(latency_ms, active_power_w)`` float64 arrays aligned
        with ``configs``.
        """
        n = len(configs)
        if isinstance(batch, int):
            if batch < 1:
                raise ValueError("batch must be >= 1")
        else:
            batch = list(batch)
            if len(batch) != n:
                raise ValueError("give one batch size per config")
            if min(batch, default=1) < 1:
                raise ValueError("batch must be >= 1")
        if n == 0:
            return np.zeros(0), np.zeros(0)
        # Calibration bias semantics depend on the kernel's structure.
        # Recurrent kernels (many dependent steps): the model's residual
        # against measured hardware sits in the *batch-independent*
        # floor (launch chains, per-step syncs, shared weight streams),
        # so only the floor — the unbiased batch-1 latency — is scaled
        # and batching amortization is preserved.  Throughput-style
        # kernels: the residual is per-element code quality, so the
        # whole latency scales.  The kernel's bias table is only read.
        bias = kernel.latency_bias(self.spec.device_type)
        floor_bias = (
            bias != 1.0 and kernel.workload_summary().sequential_steps > 8
        )
        if floor_bias and batch != 1:
            # Each row once more at batch 1, in the same pass: its floor.
            sizes = [batch] * n if isinstance(batch, int) else list(batch)
            latency_ms, power = self._unbiased(
                kernel, list(configs) * 2, sizes + [1] * n
            )
            floor = latency_ms[n:]
            return latency_ms[:n] + (bias - 1.0) * floor, power[:n]
        latency_ms, power = self._unbiased(kernel, configs, batch)
        if floor_bias:
            latency_ms = latency_ms + (bias - 1.0) * latency_ms
        elif bias != 1.0:
            latency_ms = latency_ms * bias
        return latency_ms, power

    def _unbiased(
        self,
        kernel: Kernel,
        configs: Sequence[ImplConfig],
        batch: Union[int, Sequence[int]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uncalibrated latency and power columns (``configs`` non-empty)."""
        n = len(configs)
        # Rows grouped by batch size: the occupancy and traffic tables
        # below hold one batch size at a time.
        groups: Mapping[int, Sequence[int]]
        ops: Union[float, np.ndarray]
        if isinstance(batch, int):
            groups = {batch: range(n)}
            ops = kernel.total_ops * batch
        else:
            by_size: Dict[int, List[int]] = {}
            for i, b in enumerate(batch):
                by_size.setdefault(b, []).append(i)
            groups = by_size
            ops = kernel.total_ops * np.asarray(batch)
        wl = kernel.workload_summary()
        steps = wl.sequential_steps
        # Dependent phases (e.g. LSTM time steps) serialize: only one
        # phase's worth of parallelism is live at a time, and every phase
        # boundary pays a sync cost.  This is why GPUs lose to a custom
        # FPGA pipeline on recurrent kernels (Section II-B, Fig. 1e-f).
        dp1 = max(kernel.max_data_parallelism // steps, 1)

        # Per-unique-knob tables filled by the scalar sub-models.  The
        # knob-candidate lists are tiny (|wg| x |unroll| x 2 bools), so
        # the scalar calls are a rounding error next to the batch size.
        occ1_t: Dict[int, float] = {}
        eff_t: Dict[Tuple[int, int, bool], float] = {}
        bw_t: Dict[bool, float] = {}
        pow_t: Dict[float, float] = {}

        occ = np.empty(n)
        occ1 = np.empty(n)
        occ_sqrt = np.empty(n)
        ceff = np.empty(n)
        bw_eff = np.empty(n)
        eff_bytes = np.empty(n)
        freq = np.empty(n)
        freq_pow = np.empty(n)
        for b, rows in groups.items():
            occ_t: Dict[int, Tuple[float, float, float]] = {}
            bytes_t: Dict[Tuple[bool, bool], float] = {}
            for i in rows:
                config = configs[i]
                wg = config.work_group_size
                row = occ_t.get(wg)
                if row is None:
                    o = self.occupancy(config, dp1 * b)
                    o1 = occ1_t.get(wg)
                    if o1 is None:
                        o1 = occ1_t[wg] = max(self.occupancy(config, dp1), 1e-9)
                    row = occ_t[wg] = (o, o1, o ** 0.5)
                occ[i], occ1[i], occ_sqrt[i] = row
                eff_key = (wg, config.unroll, config.pipelined)
                e = eff_t.get(eff_key)
                if e is None:
                    e = eff_t[eff_key] = self.compute_efficiency(kernel, config)
                ceff[i] = e
                be = bw_t.get(config.memory_coalescing)
                if be is None:
                    be = bw_t[config.memory_coalescing] = self.bandwidth_efficiency(
                        kernel, config
                    )
                bw_eff[i] = be
                mem_key = (config.fused, config.use_scratchpad)
                m = bytes_t.get(mem_key)
                if m is None:
                    m = bytes_t[mem_key] = self._effective_bytes(
                        kernel, config, b, steps
                    )
                eff_bytes[i] = m
                f = config.freq_scale
                fp = pow_t.get(f)
                if fp is None:
                    fp = pow_t[f] = f ** 2.2
                freq[i] = f
                freq_pow[i] = fp

        gflops = self.spec.peak_gflops * freq
        eff = np.minimum(ceff * occ / occ1 * occ_sqrt, 0.9)
        compute_ms = ops / (gflops * 1e6 * np.maximum(eff, 1e-3))
        bw = self.spec.mem_bandwidth_gbps * 1e6 * bw_eff  # bytes per ms
        memory_ms = eff_bytes / bw

        longer = np.maximum(compute_ms, memory_ms)
        shorter = np.minimum(compute_ms, memory_ms)
        exec_ms = longer + (1.0 - self.OVERLAP) * shorter
        sync_ms = self.STEP_SYNC_MS * (steps - 1)
        latency_ms = self.spec.launch_overhead_ms + exec_ms + sync_ms

        # Average board power while the kernel runs: dynamic power
        # scales with activity (occupancy x efficiency) and roughly with
        # f*V^2 ~ f^2.2 under DVFS; memory-bound phases burn less core
        # power but keep the memory system hot.
        total = compute_ms + memory_ms
        compute_frac = np.full(n, 0.5)
        np.divide(compute_ms, total, out=compute_frac, where=total > 0)
        activity = occ * (0.5 + 0.5 * eff / 0.85)
        activity = activity * (0.65 + 0.35 * compute_frac)
        dynamic_range = self.spec.peak_power_w - self.spec.idle_power_w
        power = self.spec.idle_power_w + dynamic_range * activity * freq_pow
        return latency_ms, power

    def idle_power_w(self) -> float:
        """Board power with no kernel resident."""
        return self.spec.idle_power_w

    def __repr__(self) -> str:
        return f"<GPUModel {self.spec.name!r}>"
