"""Analytical FPGA performance, resource and power model (Section IV-C).

The paper navigates the FPGA design space with FlexCL-style analytical
models [26, 48, 50]: a pipeline latency model (initiation interval x
iterations + pipeline depth, at the post-P&R frequency) and a resource
model (DSP/BRAM/logic usage as a function of unrolling, compute units
and BRAM ports).  Power is taken to be roughly proportional to resource
utilization [51], which the paper argues is accurate enough to guide
the exploration.

As with the GPU model, this serves both as the DSE navigator and as the
simulator's ground truth, through one vectorized implementation
(:meth:`FPGAModel.estimate_batch`).  The simulator reads an FPGA design
point only at batch 1, so it uses the latency and power the DSE stored
on the point.  Whether a design places is the batch model's
feasibility column: the DSE drops the rows that do not.  The scalar
:meth:`FPGAModel.resources` is the reference the tests hold that
column's resource counts to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from ..patterns.ppg import Kernel
from .config import ImplConfig, config_columns
from .specs import FPGASpec

__all__ = ["ResourceUsage", "FPGAModel"]


@dataclass(frozen=True)
class ResourceUsage:
    """Fabric resources consumed by one implementation."""

    dsp: int
    bram_bytes: int
    logic_cells_k: float


class FPGAModel:
    """FlexCL-style analytical model for one FPGA platform."""

    #: DSP slices per multiply-accumulate lane, by operand type.  Narrow
    #: fixed-point / half-precision datapaths pack more lanes per DSP —
    #: the classic FPGA advantage (e.g. ESE's fixed-point LSTM [40]) that
    #: 28nm-era GPUs cannot exploit.
    DSP_PER_LANE = {
        "fp64": 8.0,
        "fp32": 2.0,
        "fp16": 1.0,
        "int64": 4.0,
        "int32": 2.0,
        "int16": 1.0,
        "int8": 0.5,
        "uint8": 0.5,
    }
    #: Logic (kLUT-cells) per lane for datapath + control.
    LOGIC_K_PER_LANE = 0.15
    #: Fixed logic for the OpenCL shell / memory controllers.
    SHELL_LOGIC_K = 60.0
    #: Initiation interval of a non-pipelined loop nest.
    UNPIPELINED_II = 4.0
    #: Pipeline fill depth (cycles) per pattern stage.
    DEPTH_PER_STAGE = 24.0
    #: Compression factor achievable for resident parameter tensors via
    #: structured compression / quantization in the HLS flow (C-LSTM
    #: [22], ESE [40]); lets weight sets several times the raw BRAM
    #: capacity stay on chip.
    RESIDENT_COMPRESSION = 8.0
    #: Fraction of BRAM usable for pinned parameters.
    RESIDENT_BRAM_FRAC = 0.8

    def __init__(self, spec: FPGASpec) -> None:
        self.spec = spec

    # -- resource model ------------------------------------------------------

    def resources(self, kernel: Kernel, config: ImplConfig) -> ResourceUsage:
        """Estimate post-P&R resource usage of one implementation.

        The scalar reference of :meth:`resource_columns`, which is what
        the DSE and the simulator run; the tests check the columns
        against it."""
        lanes = config.parallel_lanes
        op_kind = kernel.workload_summary().op_kind
        dsp = int(math.ceil(lanes * self.DSP_PER_LANE.get(op_kind, 2.0)))
        # Buffers: double-buffering doubles them; BRAM partitioning into P
        # ports replicates control but not capacity (adds ~10% per port).
        buffer_bytes = self._buffer_bytes(kernel, config)
        logic = (
            self.SHELL_LOGIC_K
            + lanes * self.LOGIC_K_PER_LANE
            + 2.0 * config.bram_ports
            + (15.0 if config.pipelined else 5.0)
        )
        return ResourceUsage(dsp=dsp, bram_bytes=buffer_bytes, logic_cells_k=logic)

    def _buffer_bytes(self, kernel: Kernel, config: ImplConfig) -> int:
        """On-chip buffer footprint."""
        # Working set: per-lane tiles of the kernel's intermediate data.
        ws = kernel.intermediate_bytes if config.fused else kernel.io_bytes // 16
        ws = max(ws, 4096)
        if config.double_buffer:
            ws *= 2
        # Port replication adds control/duplication overhead; the HLS tool
        # tiles the working set down to fit the part, so cap at capacity.
        ws *= 1.0 + 0.10 * (config.bram_ports - 1)
        return int(min(ws, self.spec.bram_bytes * 0.95))

    # -- vectorized batch evaluation -----------------------------------------

    #: The knob columns the resource model reads.
    RESOURCE_KNOBS = (
        "unroll", "compute_units", "bram_ports", "pipelined", "double_buffer", "fused"
    )

    def resource_columns(
        self, kernel: Kernel, cols: Mapping[str, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`resources` and placement check over knob
        columns (``cols`` maps each :attr:`RESOURCE_KNOBS` name to one
        array, as :func:`~repro.hardware.config.config_columns` builds
        them).

        Returns ``(feasible, util, lanes)``: whether each design places
        on the part (every resource within its budget), the
        dominant-resource utilization capped at 1.0 (what the timing
        and power models consume), and the parallel lanes.  The
        arithmetic replicates :meth:`resources` operand-for-operand;
        resource counts stay well under 2**53, so the float64
        ceil/trunc values equal its ints exactly.
        """
        lanes = cols["unroll"] * cols["compute_units"]
        ports = cols["bram_ports"]

        per_lane = self.DSP_PER_LANE.get(kernel.workload_summary().op_kind, 2.0)
        dsp = np.ceil(lanes * per_lane)

        # _buffer_bytes: the pre-port working set takes one of four
        # integer values (fused x double_buffer); compute them with the
        # scalar int arithmetic and select.
        ws_fused = max(kernel.intermediate_bytes, 4096)
        ws_plain = max(kernel.io_bytes // 16, 4096)
        ws = np.where(cols["fused"], ws_fused, ws_plain)
        ws = np.where(cols["double_buffer"], ws * 2, ws)
        ws = ws * (1.0 + 0.10 * (ports - 1))
        buffer_bytes = np.trunc(np.minimum(ws, self.spec.bram_bytes * 0.95))

        logic = (
            self.SHELL_LOGIC_K
            + lanes * self.LOGIC_K_PER_LANE
            + 2.0 * ports
            + np.where(cols["pipelined"], 15.0, 5.0)
        )

        feasible = (
            (dsp <= self.spec.dsp_slices)
            & (buffer_bytes <= self.spec.bram_bytes)
            & (logic <= self.spec.logic_cells_k)
        )
        util = np.maximum(
            np.maximum(dsp / self.spec.dsp_slices, buffer_bytes / self.spec.bram_bytes),
            logic / self.spec.logic_cells_k,
        )
        util = np.minimum(util, 1.0)
        return feasible, util, lanes

    def estimate_batch(
        self, kernel: Kernel, configs: Sequence[ImplConfig], batch: int = 1
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feasibility, latency and power of ``batch`` invocations, for
        many configs in one vectorized pass.

        Unlike GPUs, FPGAs stream requests through a customized
        pipeline: batching does not change occupancy, it only
        multiplies the steady-state iterations (Section VI-B's IR
        discussion).  Branch-dependent factors are selected per row,
        and ``freq_scale ** 2`` and the step/fill terms are Python
        scalar expressions, so a row's floats do not depend on the
        other rows.  Returns ``(feasible, latency_ms,
        active_power_w)``; infeasible rows carry NaN estimates (the
        DSE drops them).
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        n = len(configs)
        if n == 0:
            return np.zeros(0, dtype=bool), np.zeros(0), np.zeros(0)
        cols = config_columns(configs, self.RESOURCE_KNOBS)
        feasible, util, lanes = self.resource_columns(kernel, cols)
        ports = cols["bram_ports"]
        pipelined = cols["pipelined"]
        double_buffer = cols["double_buffer"]
        fused = cols["fused"]
        pow_t: Dict[float, float] = {}
        freq = np.empty(n)
        freq_sq = np.empty(n)
        for i, c in enumerate(configs):
            f = c.freq_scale
            fp = pow_t.get(f)
            if fp is None:
                fp = pow_t[f] = f ** 2
            freq[i] = f
            freq_sq[i] = fp

        # Post-P&R clock: derates as the fabric fills (routing pressure).
        base = self.spec.peak_freq_mhz * self.spec.achievable_freq_frac
        base_arr = np.where(
            util > 0.7, base * (1.0 - 0.35 * (util - 0.7) / 0.3), base
        )
        freq_mhz = base_arr * freq

        # Throughput: `lanes` MACs per cycle when pipelined at II=1;
        # otherwise the loop nest restarts every UNPIPELINED_II cycles.
        # Each partitioned BRAM bank is dual-ported and delivers a wide
        # word (vector of 16 operands) per cycle; starved lanes raise
        # the effective II.
        ii = np.where(pipelined, 1.0, self.UNPIPELINED_II)
        feeds = ports * 2.0 * 16.0
        starvation = np.maximum(lanes / feeds, 1.0)
        eff_ii = ii * starvation

        ops = kernel.total_ops * batch
        cycles = ops / np.maximum(lanes, 1) * eff_ii
        n_stages = max(len(kernel.patterns), 1)
        wl = kernel.workload_summary()
        # Dependent phases only cost a pipeline drain each — the custom
        # datapath keeps state on chip between phases.
        fill = self.DEPTH_PER_STAGE * n_stages * max(wl.sequential_steps ** 0.5, 1.0)
        compute_ms = (cycles + fill) / (freq_mhz * 1e3)

        # Off-chip phase: DDR traffic; double-buffering overlaps it with
        # compute (coarse-grained pipeline, Section IV-B).  Stationary
        # weights are pinned in BRAM after structured compression when
        # they fit (one amortized fill); otherwise they are re-streamed
        # every dependent step like on a GPU.  Per-step weights are
        # streamed dense — the streaming path has no decompressor.
        stationary = float(kernel.resident_stationary_bytes)
        streamed = float(kernel.resident_streamed_bytes)
        act_base = float(kernel.io_bytes) - stationary - streamed
        activations = np.where(
            fused, act_base, act_base + kernel.intermediate_bytes
        )
        compressed = stationary / self.RESIDENT_COMPRESSION
        if compressed <= self.spec.bram_bytes * self.RESIDENT_BRAM_FRAC:
            resident_stream = compressed
        else:
            resident_stream = stationary * wl.sequential_steps
        resident_stream += streamed * batch
        bytes_moved = activations * batch + resident_stream
        bw_eff = np.where(double_buffer, 0.75, 0.45)
        memory_ms = bytes_moved / (self.spec.mem_bandwidth_gbps * 1e6 * bw_eff)
        overlapped = np.maximum(compute_ms, memory_ms) + 0.1 * np.minimum(
            compute_ms, memory_ms
        )
        exec_ms = np.where(double_buffer, overlapped, compute_ms + memory_ms)
        exec_ms = exec_ms * kernel.latency_bias(self.spec.device_type)

        # Power ~ proportional to resource utilization [51], plus static.
        dynamic_range = self.spec.peak_power_w - self.spec.idle_power_w
        activity = util * np.where(pipelined, 0.8, 0.6)
        power = self.spec.idle_power_w + dynamic_range * activity * freq_sq

        exec_ms = np.where(feasible, exec_ms, np.nan)
        power = np.where(feasible, power, np.nan)
        return feasible, exec_ms, power

    def idle_power_w(self) -> float:
        """Power with an idle (minimal) bitstream loaded."""
        return self.spec.idle_power_w

    def __repr__(self) -> str:
        return f"<FPGAModel {self.spec.name!r}>"
