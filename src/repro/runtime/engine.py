"""Event-driven simulation engine.

``LeafNode.submit`` is the reference request path: one request at a
time through replanning, allocation, dispatch and monitor bookkeeping,
in plain method calls.  This module drives whole arrival streams
through one generated dispatch program per plan that makes exactly the
same decisions:

* **One dispatch form for both run loops.** A single-node run walks
  its sorted arrival stream in ``ARRIVAL_CHUNK`` slices.  The fleet
  simulation (``ClusterSimulation``) merges autoscaler ``SCALE``
  evaluations with ``ARRIVAL`` chunks through an :class:`EventHeap`
  and hands each routed arrival to its node's session
  (:meth:`EventHeapEngine.process`).  Same-time events pop in taxonomy
  order, FIFO within a kind, so interleavings are deterministic by
  construction.

* **Incremental EST tables.** Per plan, the engine compiles each
  kernel's dispatch entries once — batch-1..``MAX_GPU_BATCH`` latency/
  power ladders, device rows with integer tie-break ranks, PCIe
  transfer costs per DAG edge — and keeps earliest-start state (device
  horizons, open GPU batches, loaded FPGA bitstreams) updated at
  reservation commit instead of recomputing per request.  Device
  horizons stay write-through on the :class:`AcceleratorInstance`, so
  external readers (cluster dispatcher queue depths, the load signal)
  always see fresh state.

* **The bit-identity contract.** Seeded runs are float-identical to a
  ``LeafNode.submit`` loop over the same stream: the fast path replays
  the float expressions of ``LeafNode._allocate`` and
  ``AcceleratorInstance.dispatch`` in their operation order, draws
  noise from a buffered log-normal stream (numpy's vectorized draws
  match scalar draws bit-for-bit), and folds the monitor's EWMA
  correction inline with identical arithmetic.  Runs the fast path
  cannot replay exactly — fault injection (extra RNG consumers,
  heartbeats) — are *delegated*: each arrival, in order, executes
  through ``LeafNode.submit`` itself.

* **Native tracing.** An enabled tracer does not delegate: the engine
  swaps a :class:`_BufferTracer` onto the node (and its scheduler) for
  the run's lifetime, the compiled dispatch program appends compact
  per-request tuples (admit / kernel dispatch / complete) next to the
  buffered control-plane emissions (replans, scheduler placements,
  monitor snapshots), and every chunk flushes the buffer to the real
  tracer in ``submit``'s emission order — so traced seeded runs
  produce the span stream a traced ``submit`` loop would.

``tests/test_engine.py`` holds seeded runs float-identical to a
``submit`` loop, fault-free, traced and under chaos;
``tests/test_golden.py`` and ``tests/golden/`` pin the outputs of every
app on the three Setting-I systems and of the fleet replays.
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..hardware.specs import DeviceType
from ..obs.tracer import SpanTracer
from .node import MAX_GPU_BATCH, NOISE_SIGMA, LeafNode, RequestRecord

__all__ = ["EventKind", "Event", "EventHeap", "EventHeapEngine"]

#: Arrival streams are walked in slices of this size: a single-node run
#: hands the dispatch program one slice per call, and the fleet
#: simulation pushes one heap event per slice (split at evaluation
#: boundaries).  Monitor windows are trimmed, and traced runs flush
#: their trace buffer, once per slice.
ARRIVAL_CHUNK = 1024

#: Process-wide cache of compiled dispatch-program code objects, keyed
#: by generated source (identical plans on identical node configs
#: generate identical source; the population is one entry per distinct
#: plan shape, so the cache stays small).
_CODE_CACHE: Dict[str, object] = {}


class EventKind(IntEnum):
    """Typed simulation events.  The integer value doubles as the
    tie-break priority at equal timestamps: an autoscaler evaluation
    due at ``t`` runs before the arrivals at ``t``."""

    SCALE = 0
    ARRIVAL = 1


class Event(NamedTuple):
    t_ms: float
    kind: EventKind
    payload: object


class EventHeap:
    """Stable min-heap of timed events.

    Ordered by ``(t_ms, kind, seq)``: time first, taxonomy priority at
    ties, insertion order within a kind.  Popping is therefore globally
    deterministic for any push order of the same event set.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0

    def push(self, t_ms: float, kind: EventKind, payload: object = None) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t_ms, int(kind), self._seq, payload))

    def pop(self) -> Event:
        t_ms, kind, _, payload = heapq.heappop(self._heap)
        return Event(t_ms, EventKind(kind), payload)

    def __bool__(self) -> bool:
        return bool(self._heap)


# Compiled dispatch-entry field layout (tuples, not dataclasses: the
# inner loop indexes them):
#   entry = (rows, lat1, impl_key, is_gpu, overflow_ms, power1,
#            lats, pows, point_index, kernel_name, fill)
# where lats/pows are 1-indexed per-batch ladders (GPU, lazily filled
# through ``fill`` — 0.0 marks an unfilled cell, latencies are always
# positive) or None (FPGA), and each device row is the mutable list
#   row = [device, open_batches, pending_rows, rank, reconfig_ms]
# with open-batch cells [launch_ms, end_ms, size, row_ref, noise].
# Rows are rank-sorted, so a pool scan needs only a strict ``<`` —
# the first minimum seen is the lowest-ranked one.


class _BufferTracer:
    """Tracer stand-in the engine swaps onto the node (and its
    scheduler) for the lifetime of a traced fast-path run.

    Control-plane emissions — replans, scheduler placements, monitor
    snapshots — land in the engine's trace buffer as passthrough
    records, interleaved with the compact per-request tuples the
    dispatch program appends, so :meth:`EventHeapEngine._flush_trace`
    can replay the whole stream to the real tracer in ``submit``'s
    emission order.  Timestamps resolve at emit time (``now_ms`` is mutable and
    advanced by ``maybe_replan`` exactly as on a real tracer)."""

    __slots__ = ("_append", "now_ms")

    enabled = True

    def __init__(self, buffer: list) -> None:
        self._append = buffer.append
        self.now_ms = 0.0

    def emit(
        self,
        kind: str,
        name: str = "",
        t_ms: Optional[float] = None,
        dur_ms: Optional[float] = None,
        **args: Any,
    ) -> None:
        self._append(
            (0, kind, name, self.now_ms if t_ms is None else t_ms, dur_ms, args)
        )


def _make_fill(node, platform, name, point, lats, pows):
    """Lazy GPU-ladder cell fill: evaluates the hardware model for one
    batch size on first use (exactly the sizes ``submit``'s
    ``_latency_fn`` lookups would see) and memoizes it in the ladder."""

    def fill(size: int) -> float:
        lat, power = node._latency_of_platform(platform, name, point, size)
        lats[size] = lat
        pows[size] = power
        return lat

    return fill


class EventHeapEngine:
    """Replay of one :class:`LeafNode`'s request stream through the
    node's generated dispatch programs.

    ``run`` drives a whole sorted stream; ``process`` admits a single
    arrival (the cluster driver's per-route entry point).  Call
    :meth:`finalize` once after the last arrival to flush the inlined
    monitor state and the noise-buffer cursor back onto the node.

    Runs the fast path cannot replicate exactly — an attached fault
    injector (extra RNG consumers, heartbeats) — are delegated to
    ``node.submit`` per arrival (``delegated`` is True); everything the
    engine promises about bit-identity then holds trivially.  An
    enabled tracer runs *natively*: emissions buffer as compact tuples
    and flush per chunk in ``submit``'s order, byte-identical to the
    delegated stream (golden-tested) at a fraction of its cost.
    """

    def __init__(self, node: LeafNode) -> None:
        self._node = node
        self.delegated = node._injector is not None
        self._traced = node.tracer.enabled and not self.delegated

        mon = node.monitor
        self._corr = mon._correction
        self._alpha = mon.ewma_alpha
        self._corr_lo, self._corr_hi = mon.correction_bounds
        self._window = mon.window
        self._arr: List[float] = []
        self._lats: List[float] = []

        #: Buffered noise draws, adopted from the node (same stream).
        self._nbuf: List[float] = node._noise_buf.tolist()
        self._npos = node._noise_pos

        self._req_arr: List[float] = []
        self._req_comp: List[float] = []
        self._req_pred: List[float] = []

        #: Integer tie-break ranks, ordered by device_id — isomorphic to
        #: ``submit``'s device-id string comparisons (ids are unique).
        self._ranks = {
            d.device_id: i
            for i, d in enumerate(
                sorted(node.devices, key=lambda d: d.device_id)
            )
        }
        self._rows: Dict[int, list] = {}
        #: ``id(plan) -> (plan, dispatch program)``.
        self._compiled: Dict[int, tuple] = {}
        #: Dispatch program for the current plan.
        self._fn: Any = None
        self._plan_ok = False
        self._win = 0.0
        self._makespan = 0.0
        self._last_replan = node._last_replan_ms

        order = node._topo_order
        self._kindex = {name: i for i, name in enumerate(order)}
        self._ends_t = [0.0] * len(order)
        self._ends_dev: List[object] = [None] * len(order)
        self._sinks = tuple(self._kindex[s] for s in node._sinks)
        self._finalized = False

        #: Native-tracing state: the trace buffer, the real tracer, and
        #: the request-sequence cursor adopted from the node.  The
        #: buffer tracer stays swapped in until :meth:`finalize`.
        self._tb: list = []
        self._rq = node._req_seq
        self._last_t: Optional[float] = None
        self._sched_swapped = False
        if self._traced:
            self._tracer = node.tracer
            buffer_tracer = _BufferTracer(self._tb)
            node.tracer = buffer_tracer
            sched = node._scheduler
            if hasattr(sched, "tracer"):
                self._sched_swapped = True
                self._sched_tracer = sched.tracer
                sched.tracer = buffer_tracer

    # -- driving --------------------------------------------------------------

    def run(
        self,
        ordered: Sequence[float],
        priorities: Optional[Sequence[float]] = None,
    ) -> List[RequestRecord]:
        """Replay a sorted arrival stream and return its request records.

        Fast-path runs walk the stream in ``ARRIVAL_CHUNK`` slices;
        delegated runs submit each arrival through the node, in order.
        """
        if self.delegated:
            submit = self._node.submit
            if priorities is None:
                records = [submit(t) for t in ordered]
            else:
                records = [
                    submit(t, priority=p) for t, p in zip(ordered, priorities)
                ]
            self.finalize()
            return records

        for i in range(0, len(ordered), ARRIVAL_CHUNK):
            prios = (
                None
                if priorities is None
                else priorities[i : i + ARRIVAL_CHUNK]
            )
            self._process_chunk(ordered[i : i + ARRIVAL_CHUNK], prios)
        self.finalize()
        return self.records()

    def process(self, t_ms: float, priority: float = 1.0) -> RequestRecord:
        """Admit one arrival (the cluster driver's entry point)."""
        if self.delegated:
            return self._node.submit(t_ms, priority=priority)
        self._process_chunk((t_ms,), (priority,))
        return RequestRecord(
            self._req_arr[-1], self._req_comp[-1], self._req_pred[-1]
        )

    def records(self) -> List[RequestRecord]:
        """Materialize the per-request records (fast-path runs)."""
        return [
            RequestRecord(a, c, p)
            for a, c, p in zip(self._req_arr, self._req_comp, self._req_pred)
        ]

    def finalize(self) -> None:
        """Flush inlined state back onto the node: the monitor's
        sliding windows (deque ``maxlen`` truncates identically to
        per-request appends), the EWMA correction, and the noise-buffer
        cursor — after this the node is indistinguishable from one that
        ran a ``submit`` loop.  Traced runs additionally flush the trace
        buffer, restore the real tracer onto the node/scheduler, and
        write the request-sequence cursor back."""
        if self._finalized or self.delegated:
            self._finalized = True
            return
        node = self._node
        mon = node.monitor
        mon._arrival_times.extend(self._arr)
        mon._latencies.extend(self._lats)
        mon._correction = self._corr
        self._arr = []
        self._lats = []
        node._noise_buf = np.asarray(self._nbuf)
        node._noise_pos = self._npos
        if self._traced:
            self._flush_trace()
            node.tracer = self._tracer
            if self._sched_swapped:
                node._scheduler.tracer = self._sched_tracer
            node._req_seq = self._rq
            node._current_req = self._rq
        self._finalized = True

    def _flush_trace(self) -> None:
        """Replay the trace buffer to the real tracer.

        The buffered tuples use :class:`SpanTracer`'s raw-record format
        (tags 1-3 for the per-request lifecycle, tag 0 for control-plane
        emissions already resolved by the buffer tracer), so a plain
        :class:`SpanTracer` takes a single ``extend`` onto its staging
        list — the events materialize lazily at read time into exactly
        what ``LeafNode.submit`` would have emitted: same names, rounded
        fields and emission order.  Tracer subclasses fall back to
        ``emit``.
        """
        tr = self._tracer
        if self._last_t is not None:
            tr.now_ms = self._last_t
        tb = self._tb
        if not tb:
            return
        if type(tr) is SpanTracer:
            tr._raw.extend(tb)
        else:
            for rec in tb:
                tag = rec[0]
                if tag == 2:
                    _, ready, rq, kn, dev, pt, start, end = rec
                    tr.emit(
                        "kernel.dispatch",
                        name=kn,
                        t_ms=ready,
                        req=rq,
                        kernel=kn,
                        device=dev,
                        point=pt,
                        start_ms=round(start, 6),
                        end_ms=round(end, 6),
                    )
                elif tag == 1:
                    _, t, rq, p = rec
                    tr.emit(
                        "request.admit",
                        name=f"req-{rq}",
                        t_ms=t,
                        req=rq,
                        priority=round(p, 6),
                    )
                elif tag == 3:
                    _, comp, rq, lat = rec
                    tr.emit(
                        "request.complete",
                        name=f"req-{rq}",
                        t_ms=comp,
                        req=rq,
                        latency_ms=round(lat, 6),
                        retries=0,
                    )
                else:
                    _, kind, name, ts, dur, args = rec
                    tr.emit(kind, name=name, t_ms=ts, dur_ms=dur, **args)
        tb.clear()

    # -- plan compilation ------------------------------------------------------

    def _row(self, dev) -> list:
        row = self._rows.get(id(dev))
        if row is None:
            row = [
                dev,
                {},
                dev.adopt_row_store(),
                self._ranks[dev.device_id],
                dev.reconfig_ms,
            ]
            self._rows[id(dev)] = row
        return row

    def _compile(self, plan) -> list:
        """Compile the active plan into per-kernel dispatch steps.

        Same sources as ``LeafNode._allocate`` (live platform pools in
        the plan's platform order, the node's shared latency cache),
        with the constants ``_allocate`` recomputes per request hoisted
        out, a per-batch GPU ladder so joins never call back into the
        model, and predecessor/transfer indices resolved to integers.
        """
        node = self._node
        live = node._live_by_platform()
        kindex = self._kindex
        steps = []
        for ki, name in enumerate(node._topo_order):
            per_platform = plan.get(name)
            entries = []
            if per_platform:
                for platform, point in per_platform.items():
                    devs = live.get(platform)
                    if not devs:
                        continue
                    lat1, power1 = node._latency_of_platform(
                        platform, name, point, 1
                    )
                    is_gpu = devs[0].device_type == DeviceType.GPU
                    fill = None
                    if is_gpu:
                        # Lazy ladder: only batch-1 up front, higher
                        # sizes filled on first join — the same model
                        # evaluations, in the same order, as ``submit``'s
                        # per-size ``_latency_fn`` lookups.
                        lats = [0.0] * (MAX_GPU_BATCH + 1)
                        pows = [0.0] * (MAX_GPU_BATCH + 1)
                        lats[1], pows[1] = lat1, power1
                        fill = _make_fill(
                            node, platform, name, point, lats, pows
                        )
                    else:
                        lats = pows = None
                    rows = sorted(
                        (self._row(d) for d in devs),
                        key=lambda r: r[3],
                    )
                    entries.append(
                        (
                            rows,
                            lat1,
                            (name, point.index),
                            is_gpu,
                            node._OVERFLOW_FACTOR * point.latency_ms,
                            power1,
                            lats,
                            pows,
                            point.index,
                            name,
                            fill,
                        )
                    )
            if not entries:
                raise RuntimeError(f"kernel {name!r} has no planned platform")
            preds = tuple(
                (kindex[p], node._xfer_ms[(p, name)])
                for p in node._preds[name]
            )
            steps.append((ki, entries, preds))
        return steps

    def _sync_plan(self, t_ms: float) -> None:
        """Replan through the node (same signal path, same state
        mutations) and point the fast loop at the compiled table for
        whichever plan object is now active."""
        node = self._node
        node.maybe_replan(t_ms)
        plan = node._plan
        self._plan_ok = bool(plan)
        self._last_replan = node._last_replan_ms
        self._makespan = node._plan_makespan_ms
        if node._is_poly:
            self._win = node._win_loaded if node._was_loaded else 0.0
        else:
            self._win = node.system.batch_window_ms
        if not plan:
            return
        cached = self._compiled.get(id(plan))
        if cached is None or cached[0] is not plan:
            cached = (plan, self._codegen(self._compile(plan), self._traced))
            self._compiled[id(plan)] = cached
        self._fn = cached[1]

    # -- dispatch-program generation -------------------------------------------

    def _codegen(self, steps, traced: bool = False):
        """Specialize the compiled tables into one straight-line chunk
        runner for this plan.

        The generated function unrolls every kernel step: pool scans
        become rank-ordered straight-line comparisons (strict ``<`` —
        the rows are rank-sorted, so the first minimum is the
        tie-break winner), per-entry constants (batch-1 latencies,
        impl keys, PCIe transfer costs, overflow thresholds) are baked
        in as literals or bound objects, and device horizons / loaded
        bitstreams / DAG end times live in plain locals, synced back to
        the authoritative objects when the runner returns — at every
        replan boundary and chunk end, so external readers (the replan
        signal path, the cluster dispatcher) always observe fresh
        state.  Float expressions replay those of ``LeafNode._allocate``
        and ``AcceleratorInstance.dispatch`` in their operation order,
        so the program is bit-identical to a ``submit`` loop.

        Returns a function
        ``run(chunk, i, t_limit, win, mk, corr, npos, nbuf)``
        that admits ``chunk[i:]`` until a timestamp reaches ``t_limit``
        (the next replan boundary) and returns the updated cursor and
        carried state.

        With ``traced`` the runner takes three extra parameters —
        ``rq`` (the request-sequence cursor), ``sk`` (1 when the chunk
        driver already emitted the admit for the first request, i.e.
        the one that triggered a replan) and ``pr`` (the chunk-aligned
        priority sequence, or None) — appends compact admit / dispatch
        / complete tuples to the engine's trace buffer at the same
        program points ``LeafNode.submit`` emits, and returns ``rq``.
        The traced variant generates different source, so it lands in
        its own ``_CODE_CACHE`` entry.
        """
        node = self._node
        consts: list = []
        bound: List[str] = []

        def bind(value, base: str) -> str:
            name = f"{base}{len(consts)}"
            consts.append(value)
            bound.append(name)
            return name

        # One local slot per device the plan touches: h<d> horizon,
        # l<d> loaded bitstream (FPGA pools only).
        dev_slot: Dict[int, int] = {}
        dev_name: List[str] = []
        dev_fpga: List[bool] = []
        dev_row: List[list] = []
        ename: Dict[int, Dict[str, str]] = {}
        for _ki, entries, _preds in steps:
            for entry in entries:
                for row in entry[0]:
                    key = id(row[0])
                    if key not in dev_slot:
                        dev_slot[key] = len(dev_name)
                        dev_name.append(bind(row[0], "D"))
                        dev_fpga.append(not entry[3])
                        dev_row.append(row)
                    elif not entry[3]:
                        dev_fpga[dev_slot[key]] = True
                names = ename.setdefault(id(entry), {})
                if not names:
                    names["K"] = bind(entry[2], "K")
                    names["N"] = bind(entry[9], "N")
                    if entry[3]:
                        names["LT"] = bind(entry[6], "LT")
                        names["PW"] = bind(entry[7], "PW")
                        names["FL"] = bind(entry[10], "FL")
        ra_name = {
            id(row[0]): bind(row[2].append, "RA") for row in dev_row
        }
        bd_name = {id(row[0]): bind(row[1], "BD") for row in dev_row}

        ET = bind(self._ends_t, "ET")
        ED = bind(self._ends_dev, "ED")
        LATA = bind(self._lats.append, "LATA")
        RCA = bind(self._req_comp.append, "RCA")
        RPA = bind(self._req_pred.append, "RPA")
        LN = bind(node._rng.lognormal, "LN")
        TB = bind(self._tb.append, "TB") if traced else ""
        sigma = repr(NOISE_SIGMA)
        maxb = repr(int(MAX_GPU_BATCH))
        alpha = repr(self._alpha)
        clo = repr(self._corr_lo)
        chi = repr(self._corr_hi)

        out: List[str] = []
        emit = out.append

        def scan_code(
            pad: str, entry, row, f_var: str, br: str = "br"
        ) -> None:
            """Finish-time estimate for one device row (the expressions
            of ``AcceleratorInstance.estimate_finish``, in its operation
            order)."""
            nm = ename[id(entry)]
            di = dev_slot[id(row[0])]
            h = f"h{di}"
            if entry[3]:
                bd = bd_name[id(row[0])]
                emit(f"{pad}b = {bd}.get({nm['K']})")
                emit(
                    f"{pad}if b is not None and b[0] >= {br} "
                    f"and b[2] < {maxb}:"
                )
                emit(f"{pad}    lv = {nm['LT']}[b[2] + 1]")
                emit(f"{pad}    if lv == 0.0:")
                emit(f"{pad}        lv = {nm['FL']}(b[2] + 1)")
                emit(f"{pad}    {f_var} = b[0] + lv")
                emit(f"{pad}else:")
                emit(
                    f"{pad}    {f_var} = ({h} if {h} > {br} else {br})"
                    f" + {entry[1]!r}"
                )
            else:
                li = f"l{di}"
                emit(f"{pad}s = {h} if {h} > {br} else {br}")
                emit(f"{pad}if {li} is not None and {li} != {nm['K']}:")
                emit(f"{pad}    s += {row[4]!r}")
                emit(f"{pad}{f_var} = s + {entry[1]!r}")

        def dispatch_code(pad: str, ki: int, entry, row, preds) -> None:
            """Reservation commit on the winning (entry, device)."""
            nm = ename[id(entry)]
            di = dev_slot[id(row[0])]
            dn = dev_name[di]
            h = f"h{di}"
            if not preds:
                emit(f"{pad}ready = t")
            else:
                j0, x0 = preds[0]
                emit(
                    f"{pad}p = e{j0} if d{j0} is {dn} "
                    f"else e{j0} + {x0!r}"
                )
                emit(f"{pad}ready = p if p > t else t")
                for j, x in preds[1:]:
                    emit(
                        f"{pad}p = e{j} if d{j} is {dn} "
                        f"else e{j} + {x!r}"
                    )
                    emit(f"{pad}if p > ready: ready = p")
            dev_id = row[0].device_id
            if entry[3]:
                bd = bd_name[id(row[0])]
                emit(f"{pad}b = {bd}.get({nm['K']})")
                emit(
                    f"{pad}if b is not None and b[0] >= ready "
                    f"and b[2] < {maxb}:"
                )
                emit(f"{pad}    oe = b[1]")
                emit(f"{pad}    sz = b[2] + 1")
                emit(f"{pad}    b[2] = sz")
                emit(f"{pad}    lv = {nm['LT']}[sz]")
                emit(f"{pad}    if lv == 0.0:")
                emit(f"{pad}        lv = {nm['FL']}(sz)")
                emit(f"{pad}    end = b[0] + lv * b[4]")
                emit(f"{pad}    b[1] = end")
                emit(f"{pad}    rec = b[3]")
                emit(f"{pad}    rec[3] = end")
                emit(f"{pad}    rec[4] = {nm['PW']}[sz]")
                emit(f"{pad}    rec[5] = sz")
                emit(f"{pad}    hh = {h} + (end - oe)")
                emit(f"{pad}    {h} = hh if hh > end else end")
                if traced:
                    emit(
                        f"{pad}    {TB}((2, ready, rq, {entry[9]!r}, "
                        f"{dev_id!r}, {entry[8]!r}, b[0], end))"
                    )
                emit(f"{pad}else:")
                emit(f"{pad}    rw = ready + win")
                emit(f"{pad}    la = {h} if {h} > rw else rw")
                emit(f"{pad}    end = la + {entry[1]!r} * noise")
                emit(
                    f"{pad}    rec = [{nm['N']}, {entry[8]!r}, la, end, "
                    f"{entry[5]!r}, 1]"
                )
                emit(f"{pad}    {ra_name[id(row[0])]}(rec)")
                emit(f"{pad}    {h} = end")
                emit(f"{pad}    {bd}[{nm['K']}] = [la, end, 1, rec, noise]")
                if traced:
                    emit(
                        f"{pad}    {TB}((2, ready, rq, {entry[9]!r}, "
                        f"{dev_id!r}, {entry[8]!r}, la, end))"
                    )
            else:
                li = f"l{di}"
                emit(f"{pad}st = {h} if {h} > ready else ready")
                emit(f"{pad}if {li} is not None and {li} != {nm['K']}:")
                emit(f"{pad}    st += {row[4]!r}")
                emit(f"{pad}{li} = {nm['K']}")
                emit(f"{pad}end = st + {entry[1]!r} * noise")
                emit(
                    f"{pad}{ra_name[id(row[0])]}(({nm['N']}, {entry[8]!r}, "
                    f"st, end, {entry[5]!r}, 1))"
                )
                emit(f"{pad}{h} = end")
                if traced:
                    emit(
                        f"{pad}{TB}((2, ready, rq, {entry[9]!r}, "
                        f"{dev_id!r}, {entry[8]!r}, st, end))"
                    )
            emit(f"{pad}e{ki} = end")
            emit(f"{pad}d{ki} = {dn}")

        params = ", ".join(
            f"{name}=_C[{idx}]" for idx, name in enumerate(bound)
        )
        emit("def _make(_C):")
        extra = " rq, sk, pr," if traced else ""
        emit(
            "    def _run(chunk, i, t_limit, win, mk, corr, npos, nbuf,"
            f"{extra} {params}):"
        )
        emit("        n = len(chunk)")
        emit("        nlen = len(nbuf)")
        for ki in range(len(steps)):
            emit(f"        e{ki} = {ET}[{ki}]")
            emit(f"        d{ki} = {ED}[{ki}]")
        for di, dn in enumerate(dev_name):
            emit(f"        h{di} = {dn}.horizon_ms")
            if dev_fpga[di]:
                emit(f"        l{di} = {dn}.loaded_impl")
        emit("        while i < n:")
        emit("            t = chunk[i]")
        emit("            if t >= t_limit:")
        emit("                break")
        emit("            i += 1")
        if traced:
            # The admit event precedes everything the request does
            # (LeafNode.submit emits it first); the replan-triggering
            # request's admit was already emitted by the chunk driver.
            emit("            if sk:")
            emit("                sk = 0")
            emit("            else:")
            emit("                rq += 1")
            emit(
                f"                {TB}((1, t, rq, "
                "1.0 if pr is None else pr[i - 1]))"
            )

        pad = "            "
        for ki, entries, preds in steps:
            if preds:
                j0 = preds[0][0]
                emit(f"{pad}br = e{j0} if e{j0} > t else t")
                for j, _x in preds[1:]:
                    emit(f"{pad}if e{j} > br: br = e{j}")
            else:
                emit(f"{pad}br = t")

            primary = entries[0]
            branches = [
                (entry, row) for entry in entries for row in entry[0]
            ]
            single = len(branches) == 1
            has_alts = len(entries) > 1

            if not single:
                first = True
                bw = 0
                for row in primary[0]:
                    if first:
                        scan_code(pad, primary, row, "bf")
                        if has_alts:
                            emit(f"{pad}brk = {row[3]}")
                        emit(f"{pad}bw = 0")
                        first = False
                    else:
                        scan_code(pad, primary, row, "f")
                        emit(f"{pad}if f < bf:")
                        emit(f"{pad}    bf = f")
                        if has_alts:
                            emit(f"{pad}    brk = {row[3]}")
                        emit(f"{pad}    bw = {bw}")
                    bw += 1
                if has_alts:
                    emit(f"{pad}if bf - br > {primary[4]!r}:")
                    apad = pad + "    "
                    for alt in entries[1:]:
                        for row in alt[0]:
                            scan_code(apad, alt, row, "f")
                            emit(
                                f"{apad}if f < bf or "
                                f"(f == bf and {row[3]} < brk):"
                            )
                            emit(f"{apad}    bf = f")
                            emit(f"{apad}    brk = {row[3]}")
                            emit(f"{apad}    bw = {bw}")
                            bw += 1

            emit(f"{pad}if npos >= nlen:")
            emit(f"{pad}    nbuf = {LN}(0.0, {sigma}, 2048).tolist()")
            emit(f"{pad}    nlen = 2048")
            emit(f"{pad}    npos = 0")
            emit(f"{pad}noise = nbuf[npos]")
            emit(f"{pad}npos += 1")

            if single:
                dispatch_code(pad, ki, branches[0][0], branches[0][1], preds)
            else:
                for bw, (entry, row) in enumerate(branches):
                    if bw == 0:
                        emit(f"{pad}if bw == 0:")
                    else:
                        emit(f"{pad}elif bw == {bw}:")
                    dispatch_code(pad + "    ", ki, entry, row, preds)

        sinks = self._sinks
        emit(f"{pad}comp = e{sinks[0]}")
        for s in sinks[1:]:
            emit(f"{pad}if e{s} > comp: comp = e{s}")
        emit(f"{pad}lat = comp - t")
        if traced:
            emit(f"{pad}{TB}((3, comp, rq, lat))")
        emit(f"{pad}{LATA}(lat)")
        emit(f"{pad}{RCA}(comp)")
        emit(f"{pad}{RPA}(mk)")
        emit(f"{pad}if mk > 0.0:")
        emit(f"{pad}    r = lat / mk")
        emit(f"{pad}    if r < {clo}:")
        emit(f"{pad}        r = {clo}")
        emit(f"{pad}    elif r > {chi}:")
        emit(f"{pad}        r = {chi}")
        emit(f"{pad}    corr += {alpha} * (r - corr)")

        for di, dn in enumerate(dev_name):
            emit(f"        {dn}.horizon_ms = h{di}")
            if dev_fpga[di]:
                emit(f"        {dn}.loaded_impl = l{di}")
        for ki in range(len(steps)):
            emit(f"        {ET}[{ki}] = e{ki}")
            emit(f"        {ED}[{ki}] = d{ki}")
        if traced:
            emit("        return i, corr, npos, nbuf, rq")
        else:
            emit("        return i, corr, npos, nbuf")
        emit("    return _run")

        src = "\n".join(out) + "\n"
        # Bytecode compilation dominates generation cost; the source is
        # deterministic for a given (plan, node config), so the code
        # object is shared process-wide (fresh engines re-bind their
        # own constants through ``_make``).
        code = _CODE_CACHE.get(src)
        if code is None:
            code = compile(src, "<dispatch-program>", "exec")
            _CODE_CACHE[src] = code
        namespace: Dict[str, object] = {"len": len}
        exec(code, namespace)
        return namespace["_make"](consts)

    # -- the fast path ---------------------------------------------------------

    def _process_chunk(
        self,
        chunk: Sequence[float],
        prios: Optional[Sequence[float]] = None,
    ) -> None:
        """Admit a chunk of arrivals through the current plan's
        dispatch program.

        The program is float-expression-identical to
        ``LeafNode._allocate`` and ``AcceleratorInstance.dispatch`` per
        kernel, with the monitor's bookkeeping inlined (EWMA correction
        folded sequentially; queue depth nets to zero per request; the
        sliding windows are rebuilt at finalize).  ``prios`` only
        matters for traced runs (admit events carry the priority); the
        simulated floats never depend on it outside delegated chaos
        runs.
        """
        if self._traced:
            self._process_chunk_traced(chunk, prios)
            return
        node = self._node
        interval = node.replan_interval_ms
        self._arr.extend(chunk)
        self._req_arr.extend(chunk)
        i = 0
        n = len(chunk)
        while i < n:
            t = chunk[i]
            if not self._plan_ok or t - self._last_replan >= interval:
                self._sync_plan(t)
                if not self._plan_ok:
                    raise RuntimeError("node has no plan (fast path)")
            i, self._corr, self._npos, self._nbuf = self._fn(
                chunk,
                i,
                self._last_replan + interval,
                self._win,
                self._makespan,
                self._corr,
                self._npos,
                self._nbuf,
            )
        w = self._window
        if len(self._lats) > 4 * w:
            del self._lats[: len(self._lats) - w]
        if len(self._arr) > 4 * w:
            del self._arr[: len(self._arr) - w]

    def _flush_monitor(self) -> None:
        """Sync the inlined monitor state onto the node before a traced
        replan: ``monitor.snapshot`` inside ``maybe_replan`` must see
        exactly the arrivals/latencies/correction a ``submit`` loop would —
        every prior request completed, the triggering one not yet
        recorded.  ``clear()`` (never rebinding) keeps the compiled
        program's bound ``append`` methods valid."""
        mon = self._node.monitor
        mon._arrival_times.extend(self._arr)
        mon._latencies.extend(self._lats)
        mon._correction = self._corr
        self._arr.clear()
        self._lats.clear()

    def _process_chunk_traced(
        self,
        chunk: Sequence[float],
        prios: Optional[Sequence[float]] = None,
    ) -> None:
        """Traced twin of the fast chunk loop.

        Differences from the untraced body, each forced by ``submit``'s
        emission order: the admit of a replan-triggering request is
        emitted *before* the replan's own buffered emissions (``sk=1``
        tells the compiled runner to skip it); the monitor buffers
        flush onto the node right before ``_sync_plan`` so the replan
        snapshot matches; and ``_arr`` extends per processed segment —
        never up front — so a snapshot cannot see in-flight or future
        arrivals.  The trace buffer flushes at chunk end, keeping
        cluster-layer emissions (``cluster.route`` lands directly on
        the real tracer between ``process`` calls) correctly
        interleaved.
        """
        node = self._node
        interval = node.replan_interval_ms
        self._req_arr.extend(chunk)
        tb_append = self._tb.append
        i = 0
        n = len(chunk)
        while i < n:
            t = chunk[i]
            sk = 0
            if not self._plan_ok or t - self._last_replan >= interval:
                self._rq += 1
                tb_append(
                    (1, t, self._rq, 1.0 if prios is None else prios[i])
                )
                sk = 1
                self._flush_monitor()
                self._sync_plan(t)
                if not self._plan_ok:
                    raise RuntimeError("node has no plan (fast path)")
            prev = i
            i, self._corr, self._npos, self._nbuf, self._rq = self._fn(
                chunk,
                i,
                self._last_replan + interval,
                self._win,
                self._makespan,
                self._corr,
                self._npos,
                self._nbuf,
                self._rq,
                sk,
                prios,
            )
            self._arr.extend(chunk[prev:i])
        w = self._window
        if len(self._lats) > 4 * w:
            del self._lats[: len(self._lats) - w]
        if len(self._arr) > 4 * w:
            del self._arr[: len(self._arr) - w]
        if n:
            self._last_t = chunk[n - 1]
        self._flush_trace()
