"""Leaf-node runtime: accelerator instances and the request dispatcher.

This module realizes scheduling decisions on concrete devices over
simulated time.  It captures the runtime behaviours the evaluation
hinges on:

* **GPU batching** — requests that queue behind an un-launched GPU
  batch of the same kernel implementation join it; batch latency comes
  from the analytical model at the grown batch size.  Batch-1 latency
  and power are the design point's own (the DSE computed them with the
  same model); a GPU point's first lookup above batch 1 evaluates its
  whole batch ladder in one vectorized model call.  Static GPU
  systems additionally hold batches open for a fixed window (the
  batching latency Section VI-B attributes to Homo-GPU on IR); Poly
  relies on natural queue-driven batching only.
* **FPGA reconfiguration** — dispatch prefers an FPGA that already has
  the chosen implementation loaded; switching implementations costs
  the part's reconfiguration latency (Section VI-C's "reconfiguring
  FPGA with a low-power kernel").
* **Execution noise** — realized latencies deviate from the analytical
  prediction by a few percent (the paper reports <6% model error), so
  the monitor's feedback correction has something to correct.
* **Device health** — every instance carries a
  :class:`~repro.faults.policy.DeviceHealth` state; with a
  :class:`~repro.faults.injector.FaultInjector` attached, executions
  lost to crashes or soft errors are retried under a timeout + capped-
  backoff policy and failed over to surviving devices.  Without an
  injector the fault machinery is fully inert: the request path is the
  exact healthy-device code, bit-identical to a fault-free build.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..apps.base import Application
from ..faults.events import FaultKind
from ..faults.policy import (
    MAX_RETRIES,
    RETRY_TIMEOUT_MS,
    DeviceHealth,
    backoff_ms,
)
from ..hardware import DVFSPolicy, GPUModel, PCIeLink
from ..hardware.specs import DeviceType
from ..obs.tracer import NULL_TRACER
from ..optim.design_point import DesignPoint, KernelDesignSpace
from ..scheduler import DeviceSlot, PolyScheduler, StaticScheduler, SystemMonitor
from .cluster import SchedulingPolicy, SystemConfig

__all__ = [
    "ExecutionRecord",
    "AcceleratorInstance",
    "RequestRecord",
    "LeafNode",
]

#: Largest batch a GPU execution may accumulate (serving frameworks cap
#: batches to bound tail latency; DjiNN-style services use O(10)).
MAX_GPU_BATCH = 10
#: Log-normal sigma of the execution-time noise (paper: <6% model error).
NOISE_SIGMA = 0.04
#: Noise draws buffered per refill of a node's noise stream.
NOISE_BLOCK = 2048
#: Poly re-derives its plan "at each time interval" (Section V): a node
#: replans on the first arrival at least this long after its last plan.
REPLAN_INTERVAL_MS = 250.0


@dataclass
class ExecutionRecord:
    """One realized device execution (possibly a batch)."""

    device_id: str
    kernel_name: str
    point_index: int
    start_ms: float
    end_ms: float
    power_w: float
    batch: int = 1


class AcceleratorInstance:
    """One physical accelerator with its reservation timeline.

    Realized executions live in :attr:`log`, one flat list of six
    values per execution: kernel, point index, start, end, power,
    batch.  Open GPU batches are cells ``[launch_ms, end_ms, size, at,
    noise]`` keyed by implementation, where ``at`` is the log position
    of the batch's end; a join rewrites end, power and batch at ``at``,
    ``at + 1`` and ``at + 2``.  The log holds only strings and numbers,
    so no realized execution is an object the cyclic collector scans.
    The event engine's generated dispatch programs extend and rewrite
    the same log and cells, so a request can move between a program
    and these methods mid-flight.
    """

    def __init__(self, device_id: str, spec, latency_fn) -> None:
        self.device_id = device_id
        self.spec = spec
        self.device_type: DeviceType = spec.device_type
        self.dvfs = DVFSPolicy(spec)
        self.horizon_ms = 0.0
        #: The execution log (see the class docstring).
        self.log: list = []
        self._latency_fn = latency_fn
        #: Open GPU batches: ``(kernel_name, point_index) -> cell``.
        self._open: Dict[Tuple[str, int], list] = {}
        #: (kernel_name, point_index) currently configured on an FPGA.
        self.loaded_impl: Optional[Tuple[str, int]] = None
        self.reconfig_ms = getattr(spec, "reconfig_ms", 0.0)
        #: Health state driven by the fault-injection subsystem; a node
        #: without an injector never leaves HEALTHY.
        self.health = DeviceHealth.HEALTHY
        #: Latency multiplier while thermally degraded (1.0 = nominal).
        self.slowdown = 1.0
        self.failed_at_ms: Optional[float] = None
        #: True once the failover planner has quarantined this device.
        self.failure_detected = False

    # -- execution records ----------------------------------------------------

    @property
    def records(self) -> List[ExecutionRecord]:
        """A fresh list of the realized executions, in log order."""
        did = self.device_id
        return [
            ExecutionRecord(did, *fields)
            for fields in zip(*[iter(self.log)] * 6)
        ]

    def record_columns(self) -> Tuple[List[float], List[float], List[float]]:
        """Parallel ``(start, end, power)`` lists of every realized
        execution — the power-timeline reader."""
        log = self.log
        return log[2::6], log[3::6], log[4::6]

    # -- health ---------------------------------------------------------------

    @property
    def is_schedulable(self) -> bool:
        """False only for a failed device the planner has quarantined;
        an undetected crash still attracts dispatches (they time out)."""
        return not (self.health == DeviceHealth.FAILED and self.failure_detected)

    def mark_failed(self, now_ms: float) -> None:
        """Fail-stop crash: in-flight work dies with the device and it
        stops drawing active power."""
        self.health = DeviceHealth.FAILED
        self.failed_at_ms = now_ms
        self.failure_detected = False
        log = self.log
        for at in range(3, len(log), 6):
            if log[at] > now_ms:
                log[at] = max(log[at - 1], now_ms)
        self._open.clear()
        self.horizon_ms = min(self.horizon_ms, now_ms)

    def mark_degraded(self, factor: float) -> None:
        """Thermal throttle: executions stretch by ``factor``."""
        if factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        self.health = DeviceHealth.DEGRADED
        self.slowdown = factor

    def mark_recovered(self, now_ms: float) -> None:
        """Repair: back to nominal clocks; an FPGA returns with no
        bitstream loaded (reconfiguration is paid again)."""
        self.health = DeviceHealth.HEALTHY
        self.slowdown = 1.0
        self.failed_at_ms = None
        self.failure_detected = False
        self.horizon_ms = max(self.horizon_ms, now_ms)
        self.loaded_impl = None
        self._open.clear()

    def abort_execution(
        self, kernel_name: str, point_index: int, end_ms: float, fault_ms: float
    ) -> None:
        """Cut short the just-reserved execution lost at ``fault_ms``:
        its record stops accruing power there and the device's timeline
        is wound back to what its surviving reservations need."""
        log = self.log
        for at in range(len(log) - 3, 0, -6):
            if (
                log[at] == end_ms
                and log[at - 3] == kernel_name
                and log[at - 2] == point_index
            ):
                log[at] = max(log[at - 1], min(log[at], fault_ms))
                break
        key = (kernel_name, point_index)
        batch = self._open.get(key)
        if batch is not None and batch[1] == end_ms:
            del self._open[key]
        self.horizon_ms = max(log[3::6], default=0.0)

    # -- dispatch -------------------------------------------------------------

    def effective_start(self, ready_ms: float, impl_key: Tuple[str, int]) -> float:
        """Earliest start for an implementation, counting reconfiguration."""
        start = max(self.horizon_ms, ready_ms)
        if (
            self.device_type == DeviceType.FPGA
            and self.loaded_impl is not None
            and self.loaded_impl != impl_key
        ):
            start += self.reconfig_ms
        return start

    def dispatch(
        self,
        kernel_name: str,
        point: DesignPoint,
        ready_ms: float,
        batch_window_ms: float,
        noise: float,
    ) -> Tuple[float, float]:
        """Reserve the execution; returns its (start, end) in ms."""
        if self.device_type == DeviceType.GPU:
            return self._dispatch_gpu(
                kernel_name, point, ready_ms, batch_window_ms, noise
            )
        return self._dispatch_fpga(kernel_name, point, ready_ms, noise)

    def _joinable(self, key: Tuple[str, int], ready_ms: float):
        """The open batch cell this execution could join, if any."""
        batch = self._open.get(key)
        if (
            batch is not None
            and batch[0] >= ready_ms
            and batch[2] < MAX_GPU_BATCH
        ):
            return batch
        return None

    def _dispatch_gpu(
        self,
        kernel_name: str,
        point: DesignPoint,
        ready_ms: float,
        batch_window_ms: float,
        noise: float,
    ) -> Tuple[float, float]:
        key = (kernel_name, point.index)
        batch = self._joinable(key, ready_ms)
        if batch is not None:
            # Join: same implementation and the batch has not launched.
            # Growing the batch extends its end; any work already queued
            # behind it is pushed back by the same delta (approximation:
            # the already-recorded timestamps of that work are kept).
            old_end = batch[1]
            batch[2] += 1
            latency, power = self._latency_fn(kernel_name, point, batch[2])
            end = batch[0] + latency * batch[4]
            batch[1] = end
            log = self.log
            at = batch[3]
            log[at] = end
            log[at + 1] = power
            log[at + 2] = batch[2]
            self.horizon_ms = max(self.horizon_ms + (end - old_end), end)
            return batch[0], end

        launch = max(self.horizon_ms, ready_ms + batch_window_ms)
        latency, power = self._latency_fn(kernel_name, point, 1)
        end = launch + latency * noise
        log = self.log
        log.extend((kernel_name, point.index, launch, end, power, 1))
        self.horizon_ms = end
        self._open[key] = [launch, end, 1, len(log) - 3, noise]
        return launch, end

    def _dispatch_fpga(
        self,
        kernel_name: str,
        point: DesignPoint,
        ready_ms: float,
        noise: float,
    ) -> Tuple[float, float]:
        impl_key = (kernel_name, point.index)
        start = self.effective_start(ready_ms, impl_key)
        self.loaded_impl = impl_key
        latency, power = self._latency_fn(kernel_name, point, 1)
        end = start + latency * noise
        self.log.extend((kernel_name, point.index, start, end, power, 1))
        self.horizon_ms = end
        return start, end

    def estimate_finish(
        self, kernel_name: str, point: DesignPoint, ready_ms: float
    ) -> float:
        """Estimated completion if this execution were dispatched here —
        the quantity the per-request allocator minimizes."""
        impl_key = (kernel_name, point.index)
        if self.device_type == DeviceType.GPU:
            batch = self._joinable(impl_key, ready_ms)
            if batch is not None:
                latency, _ = self._latency_fn(kernel_name, point, batch[2] + 1)
                return batch[0] + latency
        latency, _ = self._latency_fn(kernel_name, point, 1)
        return self.effective_start(ready_ms, impl_key) + latency

    def backlog_ms(self, now_ms: float) -> float:
        """Queued work ahead of a new arrival."""
        return max(self.horizon_ms - now_ms, 0.0)

    def busy_ms_total(self) -> float:
        log = self.log
        return sum(map(operator.sub, log[3::6], log[2::6]))


@dataclass
class RequestRecord:
    """Per-request outcome."""

    arrival_ms: float
    completion_ms: float
    predicted_ms: float
    #: Lost executions retried on this request's behalf (chaos runs).
    retries: int = 0
    #: Shed at admission by graceful degradation (never executed).
    dropped: bool = False
    #: Exhausted its retry budget without completing.
    failed: bool = False

    @property
    def latency_ms(self) -> float:
        return self.completion_ms - self.arrival_ms

    @property
    def served(self) -> bool:
        """True when the request actually completed its kernel graph."""
        return not (self.dropped or self.failed)


class _NoEligibleDevice(RuntimeError):
    """No surviving device can run a kernel (internal to the allocator)."""


class _RequestAbandoned(RuntimeError):
    """A request exhausted its retry budget or outlived every device."""

    def __init__(self, kernel_name: str, when_ms: float) -> None:
        super().__init__(f"kernel {kernel_name!r} abandoned at {when_ms:.1f} ms")
        self.kernel_name = kernel_name
        self.when_ms = when_ms


class LeafNode:
    """A datacenter leaf node executing one application's requests.

    Holds the accelerator instances, the scheduling policy (Poly or
    static), the current kernel-to-implementation plan, and the system
    monitor driving the feedback loop.
    """

    def __init__(
        self,
        system: SystemConfig,
        app: Application,
        design_spaces: Mapping[Tuple[str, str], KernelDesignSpace],
        seed: int = 0,
        pcie: Optional[PCIeLink] = None,
        tracer=None,
    ) -> None:
        self.system = system
        self.app = app
        self.design_spaces = design_spaces
        self.pcie = pcie or PCIeLink()
        #: Observability hook; the inert default keeps the request path
        #: byte-identical to an uninstrumented build.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.monitor = SystemMonitor()
        self._rng = np.random.default_rng(seed)
        #: Buffered log-normal noise draws and their cursor: the one
        #: noise stream of the node, read by :meth:`_next_noise` and
        #: adopted by the event engine's dispatch programs.  numpy's
        #: ``Generator.lognormal(size=N)`` yields the bit-identical
        #: sequence to N scalar draws, so buffering cannot change a
        #: seeded run — it only amortizes the per-draw call overhead.
        self._noise_buf: List[float] = []
        self._noise_pos = 0
        self._kernels = {k.name: k for k in app.kernels}
        #: GPU batch ladders: ``(platform, kernel, point index) -> {batch:
        #: (latency, power)}`` over :attr:`_LADDER`.
        self._ladders: Dict[Tuple[str, str, int], Dict[int, Tuple[float, float]]] = {}

        self.devices: List[AcceleratorInstance] = [
            AcceleratorInstance(device_id, spec, self._latency_of(spec))
            for device_id, spec in system.device_inventory()
        ]
        self._by_platform: Dict[str, List[AcceleratorInstance]] = {}
        for dev in self.devices:
            self._by_platform.setdefault(dev.spec.name, []).append(dev)

        if system.policy == SchedulingPolicy.POLY:
            self._scheduler = PolyScheduler(
                design_spaces, app.qos_ms, self.pcie, tracer=self.tracer
            )
        else:
            self._scheduler = StaticScheduler(design_spaces, app.qos_ms, self.pcie)
        #: Per-kernel operating points: {kernel: {platform: point}}.
        self._plan: Dict[str, Dict[str, DesignPoint]] = {}
        self._plan_makespan_ms = 0.0
        self._last_replan_ms = -float("inf")
        self._was_loaded = False
        self._light_since = 0
        self._heavy_since = 0
        self._light_plan = None
        self._heavy_plan = None
        self._light_makespan = 0.0
        self._heavy_makespan = 0.0
        self._topo_order = app.graph.kernel_names  # already topological
        graph = app.graph
        #: Per-kernel predecessor tuples and the sink set, precomputed —
        #: the graph is immutable once the node is built.
        self._preds: Dict[str, Tuple[str, ...]] = {
            name: tuple(graph.predecessors(name)) for name in self._topo_order
        }
        self._sinks: Tuple[str, ...] = tuple(graph.sinks())
        #: PCIe device-to-device transfer per edge (pure function of the
        #: edge bytes — constant for the node's lifetime).
        self._xfer_ms: Dict[Tuple[str, str], float] = {
            (pred, name): self.pcie.device_to_device_ms(
                graph.edge_bytes(pred, name)
            )
            for name in self._topo_order
            for pred in self._preds[name]
        }
        #: Poly's loaded-mode GPU batching window (see :meth:`_gpu_window`).
        self._win_loaded = min(0.04 * app.qos_ms, 10.0)
        self._is_poly = system.policy == SchedulingPolicy.POLY
        #: How long a new GPU batch stays open for joiners.  Poly opens
        #: a batching window only in high-performance mode: a small
        #: admission delay keeps the GPU in its efficient batched regime
        #: under load, while light load stays latency-optimal with
        #: immediate launches.  Kept beside ``_was_loaded``, which only
        #: :meth:`maybe_replan` changes.
        self._batch_window_ms = 0.0 if self._is_poly else system.batch_window_ms
        #: Fault-injection hooks; ``None`` keeps the request path on the
        #: exact healthy-device code (bit-identical to a fault-free run).
        self._injector = None
        self._planner = None
        self._req_seq = 0
        self._current_req = 0
        self._traced_mode: Optional[str] = None

    # -- fault hooks ----------------------------------------------------------

    def attach_injector(self, injector) -> None:
        """Wire a bound :class:`~repro.faults.injector.FaultInjector`."""
        if self._injector is not None:
            raise RuntimeError("node already has a fault injector")
        self._injector = injector
        self._planner = injector.planner

    def invalidate_plans(self) -> None:
        """Drop the precomputed operating plans; the next
        :meth:`maybe_replan` re-runs the latency/energy scheduling
        passes over the currently schedulable (surviving) device set."""
        self._light_plan = None
        self._heavy_plan = None
        self._plan = {}
        self._plan_makespan_ms = 0.0
        self._last_replan_ms = -float("inf")

    def _live_by_platform(self) -> Dict[str, List[AcceleratorInstance]]:
        """Platform pools restricted to schedulable devices (platforms
        with no survivors disappear).  Without an injector this is the
        full inventory, untouched."""
        if self._injector is None:
            return self._by_platform
        out: Dict[str, List[AcceleratorInstance]] = {}
        for platform, devs in self._by_platform.items():
            live = [d for d in devs if d.is_schedulable]
            if live:
                out[platform] = live
        return out

    # -- planning -------------------------------------------------------------

    def _latency_of(self, spec):
        """The ``(latency, power)`` lookup one device uses.

        Batch 1 reads the design point, which the DSE evaluated with the
        same model.  Only GPUs are read above batch 1: a point's first
        such lookup evaluates its whole :attr:`_LADDER` in one
        :meth:`~repro.hardware.gpu_model.GPUModel.estimate_batch` call.
        The closure holds the spec and the node's kernel and ladder
        tables, never the node itself: a device referring back to its
        node would make every finished node cyclic garbage."""
        platform = spec.name
        kernels = self._kernels
        ladders = self._ladders
        sizes = self._LADDER

        def fn(kernel_name: str, point: DesignPoint, batch: int):
            if batch == 1:
                return point.latency_ms, point.power_w
            key = (platform, kernel_name, point.index)
            ladder = ladders.get(key)
            if ladder is None:
                lat, power = GPUModel(spec).estimate_batch(
                    kernels[kernel_name], [point.config] * len(sizes), sizes
                )
                ladder = ladders[key] = dict(
                    zip(sizes, zip(lat.tolist(), power.tolist()))
                )
            return ladder[batch]

        return fn

    def _device_slots(self) -> List[DeviceSlot]:
        """Idle scheduling slots for the schedulable devices."""
        devices = (
            self.devices
            if self._injector is None
            else [d for d in self.devices if d.is_schedulable]
        )
        return [DeviceSlot(d.device_id, d.spec.name, d.device_type) for d in devices]

    def maybe_replan(self, now_ms: float) -> None:
        """Refresh the kernel plan once per interval (Section V: "at each
        time interval").

        Poly holds two precomputed operating plans and toggles between
        them on the queue-pressure signal (Section VI-B: "dynamically
        allocates ... requests to FPGAs when the load is light or shifts
        the workload to GPU when the load is much heavier"):

        * **light** — the two-step schedule on an idle node: Step 1
          latency placement, Step 2 energy swaps within the QoS slack;
          alternates carry each platform's most efficient point so the
          dispatcher can still spill.
        * **heavy** — a bottleneck-minimizing placement costing each
          kernel by its amortized per-request occupancy (batched on
          GPUs), with minimum-latency implementations everywhere.

        Static baselines compute their single hard-mapped plan once and
        never change it.
        """
        if now_ms - self._last_replan_ms < REPLAN_INTERVAL_MS and self._plan:
            return
        self._last_replan_ms = now_ms
        tr = self.tracer
        if tr.enabled:
            tr.now_ms = now_ms
        if self._light_plan is None:
            self._light_plan, self._light_makespan = self._scheduled_plan()
            if self.system.policy == SchedulingPolicy.POLY:
                self._heavy_plan = self._throughput_plan()
                self._heavy_makespan = sum(
                    next(iter(p.values())).latency_ms
                    for p in self._heavy_plan.values()
                )
            else:
                self._heavy_plan = self._light_plan
                self._heavy_makespan = self._light_makespan
            if tr.enabled:
                tr.emit(
                    "plan.computed",
                    name="light",
                    t_ms=now_ms,
                    mode="light",
                    makespan_ms=round(self._light_makespan, 6),
                    kernels=len(self._light_plan),
                )
                tr.emit(
                    "plan.computed",
                    name="heavy",
                    t_ms=now_ms,
                    mode="heavy",
                    makespan_ms=round(self._heavy_makespan, 6),
                    kernels=len(self._heavy_plan),
                )
        if self._loaded_signal(now_ms):
            self._plan = self._heavy_plan
            self._plan_makespan_ms = self._heavy_makespan
            mode = "heavy"
        else:
            self._plan = self._light_plan
            self._plan_makespan_ms = self._light_makespan
            mode = "light"
        if self._is_poly:
            self._batch_window_ms = self._win_loaded if self._was_loaded else 0.0
        if tr.enabled:
            if mode != self._traced_mode:
                self._traced_mode = mode
                tr.emit(
                    "plan.mode",
                    name=mode,
                    t_ms=now_ms,
                    mode=mode,
                    makespan_ms=round(self._plan_makespan_ms, 6),
                )
            snap = self.monitor.snapshot(now_ms)
            tr.emit("monitor.snapshot", name="monitor", t_ms=now_ms, **snap)

    def _scheduled_plan(
        self,
    ) -> Tuple[Dict[str, Dict[str, DesignPoint]], float]:
        """Run the policy's scheduler on an idle node -> light-load plan."""
        slots = self._device_slots()
        if not slots:  # total blackout: every device is quarantined
            return {}, 0.0
        schedule, _ = self._scheduler.schedule(self.app.graph, slots)
        platform_of = {s.device_id: s.platform for s in slots}
        live = self._live_by_platform()
        plan: Dict[str, Dict[str, DesignPoint]] = {}
        for a in schedule:
            chosen_platform = platform_of[a.device_id]
            per_platform = {chosen_platform: a.point}
            if self.system.policy == SchedulingPolicy.POLY:
                for platform in live:
                    if platform == chosen_platform:
                        continue
                    space = self.design_spaces.get((a.kernel_name, platform))
                    if space is None:
                        continue
                    per_platform[platform] = space.max_efficiency()
            plan[a.kernel_name] = per_platform
        return plan, schedule.makespan_ms

    def _loaded_signal(self, now_ms: float) -> bool:
        """Queue-pressure detector with hysteresis.

        The backlog on the most-loaded device is the queue-length signal
        of Section VI-C: entering high-performance mode at 25% of the
        QoS bound and leaving it below 10% avoids mode flapping.
        """
        devices = (
            self.devices
            if self._injector is None
            else [d for d in self.devices if d.is_schedulable]
        )
        if not devices:
            return self._was_loaded
        backlog = max(d.backlog_ms(now_ms) for d in devices)
        if self._was_loaded:
            # Leave high-performance mode only after the queues have
            # stayed short for several consecutive intervals.
            if backlog < 0.10 * self.app.qos_ms:
                self._light_since += 1
            else:
                self._light_since = 0
            if self._light_since >= 8:
                self._was_loaded = False
                self._light_since = 0
        elif backlog > 0.20 * self.app.qos_ms:
            # Two consecutive pressured intervals before committing to
            # the heavy plan: one-interval blips ride on the light plan.
            self._heavy_since += 1
            if self._heavy_since >= 2:
                self._was_loaded = True
                self._light_since = 0
                self._heavy_since = 0
        else:
            self._heavy_since = 0
        return self._was_loaded

    #: Candidate operating batches when costing GPU kernels under load.
    _PLANNING_BATCHES = (32, 16, 8, 4, 2, 1)
    #: Every batch size a GPU design point is read at: each size a batch
    #: can grow to, and the planning batches.
    _LADDER = tuple(sorted(set(range(1, MAX_GPU_BATCH + 1)).union(_PLANNING_BATCHES)))
    #: A batched execution costs roughly one extra batch of waiting, so a
    #: GPU operating point must satisfy margin * lat(B) <= QoS share.
    _BATCH_LATENCY_MARGIN = 2.0
    #: Backlog (in units of the preferred implementation's latency) that
    #: triggers overflow onto an alternate platform.  Kept high: spilling
    #: a long FPGA kernel onto the GPU delays the short GPU-planned
    #: kernels queued behind it, so overflow only fires under gross
    #: imbalance.
    _OVERFLOW_FACTOR = 4.0

    def _qos_share_ms(self, name: str) -> float:
        """The slice of the latency bound kernel ``name`` may consume:
        proportional to its weight on the *critical path* of the kernel
        DAG (parallel branches do not add latency)."""
        lat1 = {}
        live = self._live_by_platform()
        for kernel in self._topo_order:
            best = float("inf")
            for platform in live:
                space = self.design_spaces.get((kernel, platform))
                if space is not None:
                    best = min(best, space.min_latency().latency_ms)
            lat1[kernel] = best
        # Longest path through the DAG under single-shot latencies.
        longest: Dict[str, float] = {}
        for kernel in self._topo_order:
            preds = self.app.graph.predecessors(kernel)
            longest[kernel] = lat1[kernel] + max(
                (longest[p] for p in preds), default=0.0
            )
        critical = max(longest.values()) if longest else 0.0
        if critical <= 0:
            return self.app.qos_ms
        return self.app.qos_ms * lat1[name] / critical

    def _amortized_cost_ms(self, platform: str, name: str, point) -> Optional[float]:
        """Per-request device occupancy at the QoS-feasible operating
        point: the largest batch whose latency (plus one batch of
        accumulation wait) still fits the kernel's QoS share on GPUs;
        single-shot on FPGAs.  Returns ``None`` when no batch fits —
        the kernel cannot be served on this platform under load without
        blowing the tail-latency budget (the reason Poly keeps
        latency-critical kernels on FPGAs, Section VI-B).
        """
        dev_type = self._by_platform[platform][0].device_type
        if dev_type != DeviceType.GPU:
            lat1, _ = self._latency_of_platform(platform, name, point, 1)
            return lat1
        share = self._qos_share_ms(name)
        for b in self._PLANNING_BATCHES:
            lat_b, _ = self._latency_of_platform(platform, name, point, b)
            if self._BATCH_LATENCY_MARGIN * lat_b <= share:
                return lat_b / b
        return None

    def _throughput_plan(self) -> Dict[str, Dict[str, DesignPoint]]:
        """Bottleneck-minimizing kernel-to-platform assignment.

        Greedy longest-processing-time placement of kernels onto the
        platform pools, costing each kernel by its amortized per-request
        occupancy; every kernel keeps its min-latency point on every
        platform so the dispatcher can overflow.
        """
        live = self._live_by_platform()
        if not live:
            return {}
        pools = {p: 0.0 for p in live}
        counts = {p: len(devs) for p, devs in live.items()}
        options: Dict[str, Dict[str, Tuple[DesignPoint, float]]] = {}
        for name in self._topo_order:
            options[name] = {}
            fallback = None
            # A batched GPU placement trades latency (batch accumulation
            # waits) for throughput; it is only competitive when the GPU
            # is at least latency-comparable single-shot — otherwise the
            # FPGA pool serves the kernel with both better latency and
            # enough capacity.
            best_fpga_lat = min(
                (
                    self.design_spaces[(name, platform)].min_latency().latency_ms
                    for platform in live
                    if live[platform][0].device_type
                    != DeviceType.GPU
                    and (name, platform) in self.design_spaces
                ),
                default=None,
            )
            for platform in live:
                space = self.design_spaces.get((name, platform))
                if space is None:
                    continue
                point = space.min_latency()
                is_gpu = (
                    self._by_platform[platform][0].device_type == DeviceType.GPU
                )
                if (
                    is_gpu
                    and best_fpga_lat is not None
                    and point.latency_ms > 1.5 * best_fpga_lat
                ):
                    fallback = (platform, point)
                    continue
                cost = self._amortized_cost_ms(platform, name, point)
                if cost is None:
                    fallback = (platform, point)
                    continue
                options[name][platform] = (point, cost)
            if not options[name] and fallback is not None:
                # No QoS-feasible platform: serve it anyway (single-shot
                # cost) rather than dropping the kernel.
                platform, point = fallback
                options[name][platform] = (point, point.latency_ms)
        # A kernel whose every implementation lives on a dead platform
        # cannot be planned; requests needing it fail over or abandon.
        options = {name: opts for name, opts in options.items() if opts}
        # Place costly kernels first.
        order = sorted(
            options,
            key=lambda n: max(c for _, c in options[n].values()),
            reverse=True,
        )
        plan: Dict[str, Dict[str, DesignPoint]] = {}
        preferred: Dict[str, str] = {}
        for name in order:
            def pool_load(p):
                return (pools[p] + options[name][p][1]) / counts[p]

            best = min(options[name], key=pool_load)
            # Energy-aware tie-break: among platforms within 15% of the
            # best pool load, take the lowest-power implementation — the
            # throughput plan should not burn GPU watts for a placement
            # the FPGA pool can absorb equally well.
            near = [
                p for p in options[name] if pool_load(p) <= 1.15 * pool_load(best)
            ]
            best_platform = min(near, key=lambda p: options[name][p][0].power_w)
            pools[best_platform] += options[name][best_platform][1]
            preferred[name] = best_platform
        for name in self._topo_order:
            if name not in options:
                continue
            per_platform = {p: pt for p, (pt, _) in options[name].items()}
            # Order matters downstream: put the preferred platform first.
            pref = preferred[name]
            ordered = {pref: per_platform[pref]}
            ordered.update(per_platform)
            plan[name] = ordered
        return plan

    # -- request path -----------------------------------------------------------

    def submit(self, arrival_ms: float, priority: float = 1.0) -> RequestRecord:
        """Admit one request: realize its kernels on devices.

        ``priority`` in [0, 1] only matters under graceful degradation:
        when a failure leaves the surviving capacity below the offered
        load, the failover planner sheds the lowest-priority requests at
        admission so the rest still meet the QoS bound.
        """
        shed = self._admit(arrival_ms, priority)
        if shed is not None:
            return shed
        if self._injector is not None:
            return self._run_resilient(arrival_ms, {})
        ends: Dict[str, Tuple[float, str]] = {}  # kernel -> (end, device_id)
        for name in self._topo_order:
            device, _, _, end = self._execute_kernel(name, ends, arrival_ms)
            ends[name] = (end, device.device_id)
        return self._complete(
            arrival_ms, max(ends[s][0] for s in self._sinks), 0
        )

    def _admit(
        self, arrival_ms: float, priority: float
    ) -> Optional[RequestRecord]:
        """A request's admission steps, in order: the admit event, the
        fault clock, the replan check, the arrival record and the
        load-shedding decision.  Returns the record of a shed request,
        else ``None``."""
        tr = self.tracer
        if tr.enabled:
            tr.now_ms = arrival_ms
            self._req_seq += 1
            self._current_req = self._req_seq
            tr.emit(
                "request.admit",
                name=f"req-{self._current_req}",
                t_ms=arrival_ms,
                req=self._current_req,
                priority=round(priority, 6),
            )
        if self._injector is not None:
            self._injector.advance(arrival_ms)
        self.maybe_replan(arrival_ms)
        self.monitor.record_arrival(arrival_ms)
        if self._planner is None or not self._planner.should_shed(
            priority, arrival_ms
        ):
            return None
        self.monitor.record_drop()
        self._injector.report.shed += 1
        if tr.enabled:
            tr.emit(
                "request.shed",
                name=f"req-{self._current_req}",
                t_ms=arrival_ms,
                req=self._current_req,
            )
        return RequestRecord(
            arrival_ms, arrival_ms, self._plan_makespan_ms, dropped=True
        )

    def _run_resilient(
        self,
        arrival_ms: float,
        ends: Dict[str, Tuple[float, str]],
        first: int = 0,
        lost=None,
    ) -> RequestRecord:
        """Run kernels ``_topo_order[first:]`` of an admitted request
        under fault injection, then complete or abandon it.

        ``ends`` holds the kernels already executed.  ``lost`` is a
        faulted first attempt of kernel ``first`` that the caller made
        itself (see :meth:`_execute_kernel_resilient`): the event
        engine's dispatch programs hand a request over here at its
        first faulted reservation.
        """
        retries = 0
        try:
            for name in self._topo_order[first:]:
                end, device_id, used = self._execute_kernel_resilient(
                    name, ends, arrival_ms, lost
                )
                lost = None
                retries += used
                ends[name] = (end, device_id)
        except _RequestAbandoned as abandoned:
            self._injector.report.failed_requests += 1
            completion = max(abandoned.when_ms, arrival_ms)
            record = RequestRecord(
                arrival_ms,
                completion,
                self._plan_makespan_ms,
                retries=retries,
                failed=True,
            )
            self.monitor.record_completion(record.latency_ms, None)
            if self.tracer.enabled:
                self.tracer.emit(
                    "request.abandon",
                    name=f"req-{self._current_req}",
                    t_ms=completion,
                    req=self._current_req,
                    kernel=abandoned.kernel_name,
                    retries=retries,
                )
            return record
        return self._complete(
            arrival_ms, max(ends[s][0] for s in self._sinks), retries
        )

    def _complete(
        self, arrival_ms: float, completion_ms: float, retries: int
    ) -> RequestRecord:
        """Completion bookkeeping of a served request."""
        predicted = self._plan_makespan_ms
        record = RequestRecord(
            arrival_ms, completion_ms, predicted, retries=retries
        )
        self.monitor.record_completion(record.latency_ms, predicted or None)
        if self.tracer.enabled:
            self.tracer.emit(
                "request.complete",
                name=f"req-{self._current_req}",
                t_ms=completion_ms,
                req=self._current_req,
                latency_ms=round(record.latency_ms, 6),
                retries=retries,
            )
        return record

    def _next_noise(self) -> float:
        """The next draw of the node's execution-noise stream."""
        pos = self._noise_pos
        if pos >= len(self._noise_buf):
            self._noise_buf = self._rng.lognormal(
                0.0, NOISE_SIGMA, NOISE_BLOCK
            ).tolist()
            pos = 0
        self._noise_pos = pos + 1
        return self._noise_buf[pos]

    def _execute_kernel(
        self,
        name: str,
        ends: Dict[str, Tuple[float, str]],
        arrival_ms: float,
        floor_ms: float = 0.0,
        exclude: FrozenSet[str] = frozenset(),
    ) -> Tuple[AcceleratorInstance, DesignPoint, float, float]:
        """Allocate and dispatch one kernel; returns (device, point,
        start, end).  ``floor_ms``/``exclude`` are only exercised by the
        retry path — at their defaults this is the exact healthy-device
        execution."""
        graph = self.app.graph
        base_ready = arrival_ms
        for pred in graph.predecessors(name):
            base_ready = max(base_ready, ends[pred][0])
        if floor_ms > base_ready:
            base_ready = floor_ms
        device, point = self._allocate(name, base_ready, exclude)
        # Charge PCIe for every producer that ran on a different
        # physical device (data bounces through host DRAM).
        ready = arrival_ms
        for pred in graph.predecessors(name):
            pred_end, pred_dev = ends[pred]
            if pred_dev != device.device_id:
                pred_end += self.pcie.device_to_device_ms(
                    graph.edge_bytes(pred, name)
                )
            ready = max(ready, pred_end)
        if floor_ms > ready:
            ready = floor_ms
        noise = self._next_noise()
        if device.slowdown != 1.0:
            noise *= device.slowdown
        start, end = device.dispatch(
            name, point, ready, self._gpu_window(device), noise
        )
        if self.tracer.enabled:
            # Decision record: the reserved window at dispatch time (GPU
            # batch joins may later stretch the realized execution, which
            # the end-of-run kernel.exec spans report truthfully).
            self.tracer.emit(
                "kernel.dispatch",
                name=name,
                t_ms=ready,
                req=self._current_req,
                kernel=name,
                device=device.device_id,
                point=point.index,
                start_ms=round(start, 6),
                end_ms=round(end, 6),
            )
        return device, point, start, end

    def _execute_kernel_resilient(
        self,
        name: str,
        ends: Dict[str, Tuple[float, str]],
        arrival_ms: float,
        lost=None,
    ) -> Tuple[float, str, int]:
        """Execute one kernel under fault injection.

        Each reserved execution is checked against the injector: a lost
        one (outage overlap or transient soft error) is aborted, waited
        out (``RETRY_TIMEOUT_MS`` — the requester's latency-timeout
        detection) and retried with capped exponential backoff, at most
        ``MAX_RETRIES`` times.  A crash excludes
        the dead device from this request's further attempts, so retries
        naturally fail over — to another instance, or to another
        accelerator family via the plan's per-platform alternates.
        ``lost`` — ``(device, point_index, end_ms, fault)`` — starts the
        loop at a first attempt already reserved and found faulted.
        Returns (end, device_id, retries_used).
        """
        injector = self._injector
        exclude: Set[str] = set()
        floor_ms = 0.0
        first_device: Optional[str] = None
        attempt = 0
        while True:
            if lost is None:
                try:
                    device, point, start, end = self._execute_kernel(
                        name, ends, arrival_ms, floor_ms, frozenset(exclude)
                    )
                except _NoEligibleDevice:
                    raise _RequestAbandoned(
                        name, max(floor_ms, arrival_ms)
                    ) from None
                fault = injector.execution_fault(device, start, end)
                if fault is None:
                    if (
                        first_device is not None
                        and device.device_id != first_device
                    ):
                        injector.report.failovers += 1
                    return end, device.device_id, attempt
                point_index = point.index
            else:
                device, point_index, end, fault = lost
                lost = None
            fault_ms, kind = fault
            device.abort_execution(name, point_index, end, fault_ms)
            if first_device is None:
                first_device = device.device_id
            injector.report.retries += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "fault.retry",
                    name=name,
                    t_ms=fault_ms,
                    req=self._current_req,
                    kernel=name,
                    device=device.device_id,
                    fault=kind.value,
                    attempt=attempt,
                )
            if kind == FaultKind.DEVICE_CRASH:
                exclude.add(device.device_id)
            if attempt >= MAX_RETRIES:
                raise _RequestAbandoned(name, fault_ms + RETRY_TIMEOUT_MS)
            floor_ms = fault_ms + RETRY_TIMEOUT_MS + backoff_ms(attempt)
            attempt += 1

    def _gpu_window(self, device: AcceleratorInstance) -> float:
        if device.device_type != DeviceType.GPU:
            return 0.0
        return self._batch_window_ms

    def _allocate(
        self,
        kernel_name: str,
        ready_ms: float,
        exclude: FrozenSet[str] = frozenset(),
    ) -> Tuple[AcceleratorInstance, DesignPoint]:
        """Pick the executing (device, implementation) for one kernel.

        The preferred platform (first in the plan's dict) wins unless
        its best instance is backlogged beyond ``_OVERFLOW_FACTOR``
        times the implementation latency, in which case the earliest
        finisher across all planned platforms is taken — Poly's dynamic
        reallocation under load imbalance.

        Under fault injection, quarantined devices and this request's
        ``exclude`` set (devices it already lost executions to) drop out
        of every pool; when the plan's platforms have no survivors at
        all, the allocator falls back to any surviving platform with a
        design space for the kernel (min-latency point) — the cross-
        family failover of Section VI-C's degraded-operation story.
        """
        planned = self._plan.get(kernel_name)
        if planned is None or not planned:
            if self._injector is None:
                raise RuntimeError(
                    f"kernel {kernel_name!r} has no planned platform"
                )
            usable = self._failover_candidates(kernel_name, exclude)
        else:
            live = self._live_by_platform()
            usable = [
                (platform, point, devs)
                for platform, point in planned.items()
                for devs in (
                    [d for d in live.get(platform, ()) if d.device_id not in exclude],
                )
                if devs
            ]
            if not usable and self._injector is not None:
                usable = self._failover_candidates(kernel_name, exclude)
        if not usable:
            raise _NoEligibleDevice(kernel_name)

        pref_platform, pref_point, pref_devs = usable[0]
        pref_dev = min(
            pref_devs,
            key=lambda d: (
                d.estimate_finish(kernel_name, pref_point, ready_ms),
                d.device_id,
            ),
        )
        pref_finish = pref_dev.estimate_finish(kernel_name, pref_point, ready_ms)
        backlog = pref_finish - ready_ms

        if len(usable) == 1 or backlog <= (
            self._OVERFLOW_FACTOR * pref_point.latency_ms
        ):
            return pref_dev, pref_point

        best = (pref_finish, pref_dev.device_id, pref_dev, pref_point)
        for platform, point, devs in usable[1:]:
            for dev in devs:
                finish = dev.estimate_finish(kernel_name, point, ready_ms)
                cand = (finish, dev.device_id, dev, point)
                if cand[:2] < best[:2]:
                    best = cand
        return best[2], best[3]

    def _failover_candidates(
        self, kernel_name: str, exclude: FrozenSet[str]
    ) -> List[Tuple[str, DesignPoint, List[AcceleratorInstance]]]:
        """Emergency placement when the plan offers no surviving device:
        every live platform holding a design space for the kernel, at
        its minimum-latency Pareto point."""
        out: List[Tuple[str, DesignPoint, List[AcceleratorInstance]]] = []
        for platform, devs in self._live_by_platform().items():
            space = self.design_spaces.get((kernel_name, platform))
            if space is None:
                continue
            eligible = [d for d in devs if d.device_id not in exclude]
            if eligible:
                out.append((platform, space.min_latency(), eligible))
        return out

    # -- accounting -------------------------------------------------------------

    def all_records(self) -> List[ExecutionRecord]:
        out: List[ExecutionRecord] = []
        for dev in self.devices:
            out.extend(dev.records)
        return out

    def capacity_estimate_rps(self) -> float:
        """Crude sustained-throughput estimate of the current plan,
        used by the monitor's load normalization."""
        if not self._plan:
            return 1.0
        busy: Dict[str, float] = {}
        for name, per_platform in self._plan.items():
            platform, point = next(iter(per_platform.items()))  # preferred
            amortize = 1.0
            if self._by_platform[platform][0].device_type == DeviceType.GPU:
                # Batching amortization at a typical operating batch.
                lat1, _ = self._latency_of_platform(platform, name, point, 1)
                lat8, _ = self._latency_of_platform(platform, name, point, 8)
                amortize = lat8 / (8.0 * lat1)
            lat, _ = self._latency_of_platform(platform, name, point, 1)
            busy[platform] = busy.get(platform, 0.0) + lat * amortize
        live = self._live_by_platform()
        rps = float("inf")
        for platform, total in busy.items():
            count = len(live.get(platform, ()))
            if count == 0:
                continue
            rps = min(rps, count * 1000.0 / total)
        if rps == float("inf"):
            return 0.0
        return rps

    def _latency_of_platform(self, platform, name, point, batch):
        return self._by_platform[platform][0]._latency_fn(name, point, batch)
