"""Event-driven simulation engine.

``LeafNode.submit`` is the reference request path: one request at a
time through replanning, allocation, dispatch and monitor bookkeeping,
in plain method calls.  This module drives whole arrival streams
through one generated dispatch program per plan that makes exactly the
same decisions on the node's own state:

* **One dispatch form for both run loops.** A single-node run walks
  its sorted arrival stream in ``ARRIVAL_CHUNK`` slices.  The fleet
  simulation (``ClusterSimulation``) walks its autoscaler evaluation
  grid, routing the arrivals before each evaluation, and hands each
  routed arrival to its node's session (:meth:`EventHeapEngine.process`).

* **Incremental EST tables.** Per plan, the engine compiles each
  kernel's dispatch entries once — batch-1..``MAX_GPU_BATCH`` latency/
  power ladders, device rows with integer tie-break ranks, PCIe
  transfer costs per DAG edge — and keeps earliest-start state (device
  horizons, open GPU batches, loaded FPGA bitstreams) updated at
  reservation commit instead of recomputing per request.  Device
  horizons stay write-through on the :class:`AcceleratorInstance`, so
  external readers (cluster dispatcher queue depths, the load signal)
  always see fresh state.

* **The node owns its state.** Each program call reads the node's
  noise-buffer cursor and request counter and writes them back when it
  returns; it appends latencies to the monitor's window, and its
  arrivals then extend the monitor's arrival window.  Between
  calls the node is indistinguishable from one that ran a ``submit``
  loop, so a replan's monitor snapshot sees every earlier request and
  not the triggering one.

* **The bit-identity contract.** Seeded runs are float-identical to a
  ``LeafNode.submit`` loop over the same stream: the programs replay
  the float expressions of ``LeafNode._allocate`` and
  ``AcceleratorInstance.dispatch`` in their operation order, draw
  noise from the node's buffered log-normal stream (numpy's vectorized
  draws match scalar draws bit-for-bit) and append the same latencies
  to the monitor's window.

* **Native faults.** A node with a fault injector runs the same
  programs in a fault variant, one request per call.  Per arrival the
  engine runs ``submit``'s admission steps (``LeafNode._admit``: the
  fault clock, replan, arrival record, load shedding); the program
  then scales each noise draw by its device's ``slowdown`` and asks
  ``FaultInjector.execution_fault`` about every reservation it commits.
  Fault state is read at run time, never baked into the source, so
  failover replans keep hitting the code cache.  The first faulted
  reservation — or a kernel with no planned platform or no
  schedulable device in its preferred pool — hands the request back,
  with the program's state synced, to the reference retry path
  (``LeafNode._run_resilient``), which shares the devices' execution
  logs and open-batch cells with the programs.

* **Native tracing.** A traced program appends compact per-request raw
  records (admit / kernel dispatch / complete) straight to the staging
  list of the node's :class:`~repro.obs.tracer.SpanTracer`, where every
  control-plane ``emit`` (replans, scheduler placements, monitor
  snapshots, faults, the fleet router's ``cluster.route``) also lands,
  checked against the event schema — so traced seeded runs produce the
  span stream a traced ``submit`` loop would, in its order.

``tests/test_engine.py`` and ``tests/test_properties.py`` hold seeded
runs float-identical to a ``submit`` loop, fault-free, traced and under
chaos; ``tests/test_golden.py`` and ``tests/golden/`` pin the outputs of
every app on the three Setting-I systems and of the fleet replays.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..hardware.specs import DeviceType
from .node import (
    MAX_GPU_BATCH,
    NOISE_BLOCK,
    NOISE_SIGMA,
    REPLAN_INTERVAL_MS,
    LeafNode,
    RequestRecord,
)

__all__ = ["EventHeapEngine"]

#: A single-node run hands its sorted arrival stream to the dispatch
#: program in slices of this size.
ARRIVAL_CHUNK = 1024

#: Process-wide cache of compiled dispatch-program code objects, keyed
#: by generated source (identical plans on identical node configs
#: generate identical source; the population is one entry per distinct
#: plan shape, so the cache stays small).
_CODE_CACHE: Dict[str, object] = {}


# Compiled dispatch-entry field layout (tuples, not dataclasses: the
# inner loop indexes them):
#   entry = (rows, lat1, impl_key, is_gpu, overflow_ms, power1,
#            lats, pows, point_index, kernel_name, fill)
# where lats/pows are 1-indexed per-batch ladders (GPU, lazily filled
# through ``fill`` — 0.0 marks an unfilled cell, latencies are always
# positive) or None (FPGA), and each device row is the mutable list
#   row = [device, open_batches, execution_log, rank, reconfig_ms]
# holding the device's own open-batch cells [launch_ms, end_ms, size,
# at, noise] and flat execution log, six values per execution (see
# ``AcceleratorInstance``).  Rows are rank-sorted, so a pool scan needs
# only a strict ``<`` — the first minimum seen is the lowest-ranked one.


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
    arrival (the cluster driver's per-route entry point).  The node
    owns every piece of simulation state — monitor windows, noise
    cursor, request counter, trace stream — and after any call it holds
    what a ``submit`` loop over the same arrivals would leave.

    A node with a fault injector runs each arrival through ``submit``'s
    admission steps and the fault variant of its plan's program, and
    finishes a faulted request on the reference retry path.  An
    enabled tracer (a :class:`~repro.obs.tracer.SpanTracer`) runs
    natively: the programs stage raw records on it in ``submit``'s
    order.
    """

    def __init__(self, node: LeafNode) -> None:
        self._node = node
        self._faulty = node._injector is not None
        self._traced = node.tracer.enabled

        self._req_arr: List[float] = []
        self._req_comp: List[float] = []
        #: Records of a fault-injected node's requests (its requests
        #: may be retried, shed or abandoned, which the columns above
        #: cannot express).
        self._done: List[RequestRecord] = []

        #: Integer tie-break ranks, ordered by device_id — isomorphic to
        #: ``submit``'s device-id string comparisons (ids are unique).
        self._ranks = {
            d.device_id: i
            for i, d in enumerate(
                sorted(node.devices, key=lambda d: d.device_id)
            )
        }
        self._rows: Dict[int, list] = {}
        #: Dispatch programs by plan content (see :meth:`_adopt`).
        self._compiled: Dict[tuple, Any] = {}
        #: The plan object the current program was compiled from.
        self._plan: Any = None
        #: Dispatch program for the current plan.
        self._fn: Any = None
        self._plan_ok = False

        order = node._topo_order
        self._kindex = {name: i for i, name in enumerate(order)}
        self._sinks = tuple(self._kindex[s] for s in node._sinks)

    # -- driving --------------------------------------------------------------

    def run(
        self,
        ordered: Sequence[float],
        priorities: Optional[Sequence[float]] = None,
    ) -> List[RequestRecord]:
        """Replay a sorted arrival stream, in ``ARRIVAL_CHUNK`` slices,
        and return its request records."""
        step = self._process_faulty if self._faulty else self._process_chunk
        for i in range(0, len(ordered), ARRIVAL_CHUNK):
            prios = (
                None
                if priorities is None
                else priorities[i : i + ARRIVAL_CHUNK]
            )
            step(ordered[i : i + ARRIVAL_CHUNK], prios)
        return self.records()

    def process(self, t_ms: float, priority: float = 1.0) -> None:
        """Admit one arrival (the cluster driver's entry point); its
        record joins :meth:`records`.

        On an untraced, fault-free node this is one replan check and
        one program call: ``maybe_replan``'s own test decides the
        replan, so the program, which stops on the same test, always
        admits the arrival.  Traced nodes stage the admit event through
        :meth:`_process_chunk`, fault-injected ones run the admission
        steps of :meth:`_process_faulty`.
        """
        if self._faulty:
            self._process_faulty((t_ms,), (priority,))
            return
        if self._traced:
            self._process_chunk((t_ms,), (priority,))
            return
        node = self._node
        last = node._last_replan_ms
        interval = REPLAN_INTERVAL_MS
        if not self._plan_ok or t_ms - last >= interval:
            self._sync_plan(t_ms)
            if not self._plan_ok:
                raise RuntimeError("node has no plan (fast path)")
            last = node._last_replan_ms
        self._req_arr.append(t_ms)
        _, node._noise_pos, node._noise_buf, _ = self._fn(
            (t_ms,),
            0,
            last,
            interval,
            node._batch_window_ms,
            node._noise_pos,
            node._noise_buf,
            0,
            0,
            None,
        )
        node.monitor._arrival_times.append(t_ms)

    def records(self) -> List[RequestRecord]:
        """Materialize the per-request records."""
        if self._faulty:
            return list(self._done)
        return [
            RequestRecord(a, c) for a, c in zip(self._req_arr, self._req_comp)
        ]

    # -- plan compilation ------------------------------------------------------

    def _row(self, dev) -> list:
        row = self._rows.get(id(dev))
        if row is None:
            row = [
                dev,
                dev._open,
                dev.log,
                self._ranks[dev.device_id],
                dev.reconfig_ms,
            ]
            self._rows[id(dev)] = row
        return row

    def _compile(self, plan) -> list:
        """Compile the active plan into per-kernel dispatch steps.

        Same sources as ``LeafNode._allocate`` (platform pools in the
        plan's platform order, the node's shared latency cache), with
        the constants ``_allocate`` recomputes per request hoisted out,
        a per-batch GPU ladder so joins never call back into the model,
        and predecessor/transfer indices resolved to integers.  Pools
        hold the platform's whole inventory: the fault variant checks
        which devices are schedulable at run time.  On a fault-injected
        node a kernel missing from the plan compiles to no entries (its
        requests fail over in Python).
        """
        node = self._node
        pools = node._by_platform
        kindex = self._kindex
        steps = []
        for ki, name in enumerate(node._topo_order):
            per_platform = plan.get(name)
            entries = []
            if per_platform:
                for platform, point in per_platform.items():
                    devs = pools.get(platform)
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
            if not entries and not self._faulty:
                raise RuntimeError(f"kernel {name!r} has no planned platform")
            preds = tuple(
                (kindex[p], node._xfer_ms[(p, name)])
                for p in node._preds[name]
            )
            steps.append((ki, entries, preds))
        return steps

    def _sync_plan(self, t_ms: float) -> None:
        """Replan through the node (same signal path, same state
        mutations) and point the engine at the program of whichever
        plan object is now active."""
        self._node.maybe_replan(t_ms)
        self._adopt(self._node._plan)

    def _adopt(self, plan) -> None:
        """Point the engine at the dispatch program of ``plan``.

        Programs are kept by plan content — each kernel's planned
        ``(platform, point index)`` pairs in order — so a failover
        replan that lands on a plan seen before in this session reuses
        its program: programs read device health at run time."""
        if plan is self._plan:
            return
        self._plan = plan
        self._plan_ok = bool(plan)
        if not plan:
            return
        key = tuple(
            tuple((platform, point.index) for platform, point in per.items())
            if (per := plan.get(name))
            else ()
            for name in self._node._topo_order
        )
        fn = self._compiled.get(key)
        if fn is None:
            fn = self._codegen(self._compile(plan))
            self._compiled[key] = fn
        self._fn = fn

    # -- dispatch-program generation -------------------------------------------

    def _codegen(self, steps):
        """Specialize the compiled tables into one straight-line chunk
        runner for this plan.

        The generated function unrolls every kernel step: pool scans
        become rank-ordered straight-line comparisons (strict ``<`` —
        the rows are rank-sorted, so the first minimum is the
        tie-break winner), per-entry constants (batch-1 latencies,
        impl keys, PCIe transfer costs, overflow thresholds) are baked
        in as literals or bound objects, and device horizons and loaded
        bitstreams live in plain locals, synced back to the
        authoritative objects when the runner returns — at every replan
        boundary and chunk end, so external readers (the replan signal
        path, the cluster dispatcher) always observe fresh state.  Each
        kernel's end time and device are locals of the request that
        assigns them.  Float expressions replay those of
        ``LeafNode._allocate`` and ``AcceleratorInstance.dispatch`` in
        their operation order, so the program is bit-identical to a
        ``submit`` loop.

        Returns a function
        ``run(chunk, i, lr, iv, win, npos, nbuf, rq, sk, pr)``
        that admits ``chunk[i:]`` until a timestamp ``t`` is due for a
        replan, ``t - lr >= iv`` for the node's last replan time ``lr``
        and interval ``iv`` (``maybe_replan``'s test: ``t >= lr + iv``
        can round differently and strand the driver on a boundary
        arrival), appends each latency to the monitor's window, and
        returns the updated cursor and carried state
        ``(i, npos, nbuf, rq)``.

        On a traced node the runner also stages compact admit /
        dispatch / complete records on the node's tracer at the same
        program points ``LeafNode.submit`` emits: ``rq`` is the
        request-sequence cursor, ``sk`` is 1 when the chunk driver
        already staged the admit of the first request (the one that
        triggered a replan) and ``pr`` is the chunk-aligned priority
        sequence, or None.  Untraced, the three pass through unused.
        The traced variant generates different source, so it lands in
        its own ``_CODE_CACHE`` entry.

        On a fault-injected node the runner is the fault variant
        ``run(t, win, npos, nbuf, rq)``: it runs one admitted request
        (admission and completion bookkeeping stay in ``LeafNode``),
        scales each noise draw by the device's ``slowdown`` and checks
        every committed reservation with ``execution_fault``.  It
        returns ``(npos, nbuf, completion, hand)``: ``hand`` is None for
        a request that completed, else ``(kernel_index, lost, ends,
        devices)`` — the first faulted reservation ``(device,
        point_index, end, fault)``, or None for a kernel with no planned
        platform or no schedulable device in its preferred pool, plus
        the end times and devices of the kernels before it — for
        ``LeafNode._run_resilient`` to finish.  Device health is read
        at run time, so one program serves every schedulable set.
        """
        node = self._node
        traced = self._traced
        faulty = self._faulty
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
        # Each device's log ``extend`` (one 6-tuple per new execution)
        # and, on GPUs, the log itself (``len`` and a join's stores).
        lx_name = {id(row[0]): bind(row[2].extend, "LX") for row in dev_row}
        lg_name = {
            id(row[0]): bind(row[2], "LG")
            for row in dev_row
            if row[0].device_type == DeviceType.GPU
        }
        bd_name = {id(row[0]): bind(row[1], "BD") for row in dev_row}

        if faulty:
            XF = bind(node._injector.execution_fault, "XF")
        else:
            LATA = bind(node.monitor._latencies.append, "LATA")
            RCA = bind(self._req_comp.append, "RCA")
        LN = bind(node._rng.lognormal, "LN")
        TB = bind(node.tracer._raw.append, "TB") if traced else ""
        sigma = repr(NOISE_SIGMA)
        maxb = repr(int(MAX_GPU_BATCH))

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

        def hand_code(pad: str, ki: int, lost: str) -> None:
            """Hand the request back to Python at kernel ``ki``."""
            done = range(ki)
            ends = "".join(f"e{j}, " for j in done)
            devs = "".join(f"d{j}, " for j in done)
            emit(f"{pad}hand = ({ki}, {lost}, ({ends}), ({devs}))")
            emit(f"{pad}break")

        def fault_code(pad: str, ki: int, entry, dn: str, start: str) -> None:
            """Ask the injector about the reservation just committed."""
            emit(f"{pad}f = {XF}({dn}, {start}, end)")
            emit(f"{pad}if f is not None:")
            hand_code(pad + "    ", ki, f"({dn}, {entry[8]!r}, end, f)")

        def dispatch_code(pad: str, ki: int, entry, row, preds) -> None:
            """Reservation commit on the winning (entry, device)."""
            nm = ename[id(entry)]
            di = dev_slot[id(row[0])]
            dn = dev_name[di]
            h = f"h{di}"
            if faulty:
                emit(f"{pad}sl = {dn}.slowdown")
                emit(f"{pad}if sl != 1.0:")
                emit(f"{pad}    noise *= sl")
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
            lx = lx_name[id(row[0])]
            if entry[3]:
                bd = bd_name[id(row[0])]
                lg = lg_name[id(row[0])]
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
                emit(f"{pad}    at = b[3]")
                emit(f"{pad}    {lg}[at] = end")
                emit(f"{pad}    {lg}[at + 1] = {nm['PW']}[sz]")
                emit(f"{pad}    {lg}[at + 2] = sz")
                emit(f"{pad}    hh = {h} + (end - oe)")
                emit(f"{pad}    {h} = hh if hh > end else end")
                if traced:
                    emit(
                        f"{pad}    {TB}((2, ready, rq, {entry[9]!r}, "
                        f"{dev_id!r}, {entry[8]!r}, b[0], end))"
                    )
                if faulty:
                    fault_code(pad + "    ", ki, entry, dn, "b[0]")
                emit(f"{pad}else:")
                emit(f"{pad}    rw = ready + win")
                emit(f"{pad}    la = {h} if {h} > rw else rw")
                emit(f"{pad}    end = la + {entry[1]!r} * noise")
                emit(
                    f"{pad}    {lx}(({nm['N']}, {entry[8]!r}, la, end, "
                    f"{entry[5]!r}, 1))"
                )
                emit(f"{pad}    {h} = end")
                emit(
                    f"{pad}    {bd}[{nm['K']}] = "
                    f"[la, end, 1, len({lg}) - 3, noise]"
                )
                if traced:
                    emit(
                        f"{pad}    {TB}((2, ready, rq, {entry[9]!r}, "
                        f"{dev_id!r}, {entry[8]!r}, la, end))"
                    )
                if faulty:
                    fault_code(pad + "    ", ki, entry, dn, "la")
            else:
                li = f"l{di}"
                emit(f"{pad}st = {h} if {h} > ready else ready")
                emit(f"{pad}if {li} is not None and {li} != {nm['K']}:")
                emit(f"{pad}    st += {row[4]!r}")
                emit(f"{pad}{li} = {nm['K']}")
                emit(f"{pad}end = st + {entry[1]!r} * noise")
                emit(
                    f"{pad}{lx}(({nm['N']}, {entry[8]!r}, "
                    f"st, end, {entry[5]!r}, 1))"
                )
                emit(f"{pad}{h} = end")
                if traced:
                    emit(
                        f"{pad}{TB}((2, ready, rq, {entry[9]!r}, "
                        f"{dev_id!r}, {entry[8]!r}, st, end))"
                    )
                if faulty:
                    fault_code(pad, ki, entry, dn, "st")
            emit(f"{pad}e{ki} = end")
            emit(f"{pad}d{ki} = {dn}")

        params = ", ".join(
            f"{name}=_C[{idx}]" for idx, name in enumerate(bound)
        )
        emit("def _make(_C):")
        if faulty:
            emit(f"    def _run(t, win, npos, nbuf, rq, {params}):")
            emit("        nlen = len(nbuf)")
        else:
            emit(
                "    def _run(chunk, i, lr, iv, win, npos, nbuf, rq, sk, pr,"
                f" {params}):"
            )
            emit("        n = len(chunk)")
            emit("        nlen = len(nbuf)")
        for di, dn in enumerate(dev_name):
            emit(f"        h{di} = {dn}.horizon_ms")
            if dev_fpga[di]:
                emit(f"        l{di} = {dn}.loaded_impl")
            if faulty:
                emit(f"        v{di} = {dn}.is_schedulable")
        if faulty:
            # One pass per call; ``break`` hands the request back.
            emit("        comp = 0.0")
            emit("        hand = None")
            emit("        while True:")
        else:
            emit("        while i < n:")
            emit("            t = chunk[i]")
            emit("            if t - lr >= iv:")
            emit("                break")
            emit("            i += 1")
        if traced and not faulty:
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
        # The fault variant stops at the first kernel with no live
        # platform: its requests always fail over in Python from there.
        cut = next((ki for ki, entries, _ in steps if not entries), None)
        for ki, entries, preds in steps[:cut]:
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

            if single and faulty:
                emit(f"{pad}if not v{dev_slot[id(branches[0][1][0])]}:")
                hand_code(pad + "    ", ki, "None")
            elif faulty:
                # Only schedulable devices compete; with none left in
                # the preferred pool the request fails over in Python.
                emit(f"{pad}bw = -1")
                for bw, row in enumerate(primary[0]):
                    emit(f"{pad}if v{dev_slot[id(row[0])]}:")
                    scan_code(pad + "    ", primary, row, "f")
                    emit(f"{pad}    if bw < 0 or f < bf:")
                    emit(f"{pad}        bf = f")
                    if has_alts:
                        emit(f"{pad}        brk = {row[3]}")
                    emit(f"{pad}        bw = {bw}")
                emit(f"{pad}if bw < 0:")
                hand_code(pad + "    ", ki, "None")
            elif not single:
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
                bw = len(primary[0])
                emit(f"{pad}if bf - br > {primary[4]!r}:")
                apad = pad + "    "
                for alt in entries[1:]:
                    for row in alt[0]:
                        rpad = apad
                        if faulty:
                            emit(f"{apad}if v{dev_slot[id(row[0])]}:")
                            rpad = apad + "    "
                        scan_code(rpad, alt, row, "f")
                        emit(
                            f"{rpad}if f < bf or "
                            f"(f == bf and {row[3]} < brk):"
                        )
                        emit(f"{rpad}    bf = f")
                        emit(f"{rpad}    brk = {row[3]}")
                        emit(f"{rpad}    bw = {bw}")
                        bw += 1

            emit(f"{pad}if npos >= nlen:")
            emit(f"{pad}    nbuf = {LN}(0.0, {sigma}, {NOISE_BLOCK}).tolist()")
            emit(f"{pad}    nlen = {NOISE_BLOCK}")
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
        if cut is not None:
            hand_code(pad, cut, "None")
        else:
            emit(f"{pad}comp = e{sinks[0]}")
            for s in sinks[1:]:
                emit(f"{pad}if e{s} > comp: comp = e{s}")
        if faulty:
            if cut is None:
                emit(f"{pad}break")
        else:
            emit(f"{pad}lat = comp - t")
            if traced:
                emit(f"{pad}{TB}((3, comp, rq, lat))")
            emit(f"{pad}{LATA}(lat)")
            emit(f"{pad}{RCA}(comp)")

        for di, dn in enumerate(dev_name):
            emit(f"        {dn}.horizon_ms = h{di}")
            if dev_fpga[di]:
                emit(f"        {dn}.loaded_impl = l{di}")
        if faulty:
            emit("        return npos, nbuf, comp, hand")
        else:
            emit("        return i, npos, nbuf, rq")
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
        # Popped: ``_make`` refers back to the namespace (its globals),
        # and left in it would make every dropped program cyclic garbage.
        return namespace.pop("_make")(consts)

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
        kernel, with the monitor's completion bookkeeping inlined (each
        latency appended to its window).  Each call runs to the next
        replan boundary and its arrivals then extend the monitor's
        arrival window, so a replan's snapshot sees every earlier
        request and not the triggering one.  On a traced node the admit
        of a replan-triggering request is staged before ``_sync_plan``,
        as ``submit`` emits it (``sk=1`` tells the program to skip it).
        ``prios`` only matters for traced runs (admit events carry the
        priority); the simulated floats of a node without a fault
        injector never depend on it.
        """
        node = self._node
        mon = node.monitor
        traced = self._traced
        interval = REPLAN_INTERVAL_MS
        self._req_arr.extend(chunk)
        i = 0
        n = len(chunk)
        while i < n:
            t = chunk[i]
            sk = 0
            if not self._plan_ok or t - node._last_replan_ms >= interval:
                if traced:
                    node._req_seq += 1
                    node.tracer._raw.append(
                        (1, t, node._req_seq, 1.0 if prios is None else prios[i])
                    )
                    sk = 1
                self._sync_plan(t)
                if not self._plan_ok:
                    raise RuntimeError("node has no plan (fast path)")
            prev = i
            i, node._noise_pos, node._noise_buf, node._req_seq = self._fn(
                chunk,
                i,
                node._last_replan_ms,
                interval,
                node._batch_window_ms,
                node._noise_pos,
                node._noise_buf,
                node._req_seq,
                sk,
                prios,
            )
            mon._arrival_times.extend(chunk[prev:i])
        if traced and n:
            node._current_req = node._req_seq
            node.tracer.now_ms = chunk[n - 1]

    def _process_faulty(
        self,
        chunk: Sequence[float],
        prios: Optional[Sequence[float]] = None,
    ) -> None:
        """Admit a chunk of arrivals on a fault-injected node.

        Per arrival: ``submit``'s admission steps (``LeafNode._admit``),
        then one call of the current plan's fault variant.  A request the
        program hands back finishes on ``LeafNode._run_resilient``;
        with no plan at all (every device quarantined) the whole
        request runs there.
        """
        node = self._node
        admit = node._admit
        order = node._topo_order
        done = self._done
        for k, t in enumerate(chunk):
            record = admit(t, 1.0 if prios is None else prios[k])
            if record is None:
                self._adopt(node._plan)
                if not self._plan_ok:
                    record = node._run_resilient(t, {})
                else:
                    node._noise_pos, node._noise_buf, comp, hand = self._fn(
                        t,
                        node._batch_window_ms,
                        node._noise_pos,
                        node._noise_buf,
                        node._current_req,
                    )
                    if hand is None:
                        record = node._complete(t, comp, 0)
                    else:
                        ki, lost, es, ds = hand
                        ends = {
                            order[j]: (es[j], ds[j].device_id)
                            for j in range(ki)
                        }
                        record = node._run_resilient(t, ends, ki, lost)
            done.append(record)
