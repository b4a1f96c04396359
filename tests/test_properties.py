"""Property-based tests (hypothesis) on core invariants."""

import math
from typing import FrozenSet, NamedTuple, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import small_kernel, synthetic_space
from golden_cases import resilience_sig
from test_engine import submit_loop
from repro import apps as apps_mod
from repro.apps.base import Application
from repro.cluster import Autoscaler, AutoscalerConfig, SchedulingRequest
from repro.faults import FaultSchedule
from repro.hardware import AMD_W9100, GPUModel, ImplConfig, PCIeLink, XILINX_7V3, FPGAModel
from repro.hardware.specs import DeviceType
from repro.obs import SpanTracer
from repro.optim import explore_application, pareto_front
from repro.patterns import Kernel, Map, PPG, Tensor
from repro.runtime import (
    energy_proportionality,
    max_throughput_under_qos,
    percentile_latency,
    poisson_arrivals,
    run_simulation,
    setting,
)
from repro.scheduler import KernelGraph

point_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=0.1, max_value=1e3),
    ),
    min_size=1,
    max_size=40,
)


class TestParetoProperties:
    @given(point_lists)
    def test_frontier_is_subset_and_nondominated(self, points):
        space = synthetic_space("k", "p", DeviceType.GPU, points)
        frontier = space.pareto()
        all_points = list(space)
        assert set(id(p) for p in frontier) <= set(id(p) for p in all_points)
        for a in frontier:
            assert not any(b.dominates(a) for b in all_points)

    @given(point_lists)
    def test_frontier_monotone_tradeoff(self, points):
        space = synthetic_space("k", "p", DeviceType.GPU, points)
        frontier = space.pareto()
        lats = [p.latency_ms for p in frontier]
        pows = [p.power_w for p in frontier]
        assert lats == sorted(lats)
        assert pows == sorted(pows, reverse=True)

    @given(point_lists)
    def test_extreme_points_on_frontier_generic(self, points):
        front = pareto_front(points, lambda t: t)
        min_lat = min(p[0] for p in points)
        assert any(math.isclose(p[0], min_lat) for p in front)


class TestModelProperties:
    @given(
        elements=st.integers(min_value=64, max_value=1 << 20),
        ops=st.floats(min_value=0.5, max_value=512.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_gpu_latency_monotone_in_work(self, elements, ops):
        x1 = Tensor("x", (elements,))
        x2 = Tensor("x", (elements,))
        ppg1, ppg2 = PPG("a"), PPG("b")
        ppg1.add_pattern(Map((x1,), ops_per_element=ops))
        ppg2.add_pattern(Map((x2,), ops_per_element=ops * 2))
        model = GPUModel(AMD_W9100)
        l1 = model.estimate(Kernel("a", ppg1), ImplConfig()).latency_ms
        l2 = model.estimate(Kernel("b", ppg2), ImplConfig()).latency_ms
        assert l2 >= l1 * 0.999

    @given(batch=st.integers(min_value=1, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_gpu_batch_latency_monotone(self, batch):
        x = Tensor("x", (1 << 16,))
        ppg = PPG("k")
        ppg.add_pattern(Map((x,), ops_per_element=16.0))
        k = Kernel("k", ppg)
        model = GPUModel(AMD_W9100)
        lat_b = model.estimate(k, ImplConfig(), batch).latency_ms
        lat_b1 = model.estimate(k, ImplConfig(), batch + 1).latency_ms
        assert lat_b1 >= lat_b * 0.999
        # ...but per-request cost never grows with batching.
        assert lat_b1 / (batch + 1) <= lat_b / batch * 1.01

    @given(
        unroll=st.sampled_from([1, 2, 4, 8, 16, 32]),
        cu=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=20, deadline=None)
    def test_fpga_resources_monotone_in_lanes(self, unroll, cu):
        x = Tensor("x", (1 << 16,))
        ppg = PPG("k")
        ppg.add_pattern(Map((x,), ops_per_element=8.0))
        k = Kernel("k", ppg)
        model = FPGAModel(XILINX_7V3)
        base = model.resources(k, ImplConfig())
        grown = model.resources(k, ImplConfig(unroll=unroll, compute_units=cu))
        assert grown.dsp >= base.dsp
        assert grown.logic_cells_k >= base.logic_cells_k

    @given(nbytes=st.integers(min_value=0, max_value=1 << 30))
    @settings(max_examples=30)
    def test_pcie_superadditive_split(self, nbytes):
        link = PCIeLink()
        whole = link.transfer_ms(nbytes)
        halves = link.transfer_ms(nbytes // 2) + link.transfer_ms(
            nbytes - nbytes // 2
        )
        assert halves >= whole * 0.999  # latency term makes splitting worse


class TestMetricProperties:
    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=200),
        st.floats(min_value=1.0, max_value=100.0),
    )
    def test_percentile_bounds(self, lats, pct):
        p = percentile_latency(lats, pct)
        assert min(lats) <= p <= max(lats)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=2, max_size=200)
    )
    def test_percentile_monotone(self, lats):
        assert percentile_latency(lats, 50.0) <= percentile_latency(lats, 99.0)

    @given(
        idle=st.floats(min_value=0.0, max_value=300.0),
        peak_delta=st.floats(min_value=1.0, max_value=300.0),
        n=st.integers(min_value=3, max_value=11),
    )
    def test_ep_at_most_one_for_affine_curves(self, idle, peak_delta, n):
        # Any affine power curve with non-negative idle power sits on or
        # above its own proportional line => EP <= 1, and EP == 1 only
        # for zero idle power.
        loads = [i / (n - 1) for i in range(n)]
        curve = [idle + load * peak_delta for load in loads]
        ep = energy_proportionality(loads, curve)
        assert ep <= 1.0 + 1e-9
        if idle == 0.0:
            assert ep == pytest.approx(1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1, max_value=1000),
                st.floats(min_value=1, max_value=10_000),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=1, max_value=10_000),
    )
    def test_max_throughput_only_counts_passing_levels(self, sweep, bound):
        rps = [r for r, _ in sweep]
        p99 = [p for _, p in sweep]
        knee = max_throughput_under_qos(rps, p99, bound)
        if knee > 0:
            assert any(
                math.isclose(r, knee) and p <= bound for r, p in zip(rps, p99)
            )
        else:
            assert min(p for r, p in sorted(zip(rps, p99))[:1]) > bound or knee == 0


@st.composite
def autoscaler_configs(draw):
    """Any config ``AutoscalerConfig`` accepts, on small fleets, with a
    target utilization of at least 1%."""
    min_nodes = draw(st.integers(min_value=1, max_value=4))
    down = draw(st.floats(min_value=0.0, max_value=0.8))
    up = draw(st.floats(min_value=down + 0.01, max_value=2.0))
    target = st.floats(min_value=max(down, 0.01), max_value=up)
    return AutoscalerConfig(
        min_nodes=min_nodes,
        max_nodes=draw(st.integers(min_value=min_nodes, max_value=8)),
        scale_up_utilization=up,
        scale_down_utilization=down,
        target_utilization=draw(target),
        warmup_ms=draw(st.floats(min_value=0.0, max_value=5_000.0)),
        idle_intervals=draw(st.integers(min_value=1, max_value=3)),
        max_launch_per_eval=draw(st.integers(min_value=1, max_value=4)),
    )


@st.composite
def scheduling_requests(draw):
    """One evaluation's view of a fleet as the fleet driver builds it:
    the capacity is the sum of the live nodes' template capacities, the
    idle nodes are serving nodes, and warming nodes may outnumber them."""
    n_serving = draw(st.integers(min_value=0, max_value=10))
    n_warming = draw(st.integers(min_value=0, max_value=10))
    templates = draw(
        st.lists(st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=3)
    )
    live = draw(
        st.lists(
            st.sampled_from(templates),
            min_size=n_serving + n_warming,
            max_size=n_serving + n_warming,
        )
    )
    n_idle = draw(st.integers(min_value=0, max_value=n_serving))
    return SchedulingRequest(
        now_ms=draw(st.floats(min_value=0.0, max_value=1e7)),
        demand_rps=draw(st.floats(min_value=0.0, max_value=5_000.0)),
        capacity_rps=sum(live),
        n_serving=n_serving,
        n_warming=n_warming,
        node_capacity_rps=draw(st.sampled_from(templates)),
        idle_nodes=tuple(f"node{i}" for i in range(n_idle)),
    )


class TestAutoscalerProperties:
    @given(config=autoscaler_configs(), request=scheduling_requests())
    @settings(max_examples=200, deadline=None)
    def test_policy_invariants(self, config, request):
        reply = Autoscaler(config).evaluate(request)
        # A reply never terminates the last serving node...
        assert len(reply.to_terminate) <= max(request.n_serving - 1, 0)
        terminated = [t.node_id for t in reply.to_terminate]
        assert len(set(terminated)) == len(terminated)
        assert set(terminated) <= set(request.idle_nodes)
        # ...launches keep the live count within max_nodes...
        if reply.to_launch:
            assert request.n_live + len(reply.to_launch) <= config.max_nodes
        # ...and the same request gets the same reply.
        assert Autoscaler(config).evaluate(request) == reply


class TestSchedulerProperties:
    @given(
        lat_gpu=st.floats(min_value=1.0, max_value=100.0),
        lat_fpga=st.floats(min_value=1.0, max_value=100.0),
        n=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_chain_schedule_invariants(self, lat_gpu, lat_fpga, n):
        from conftest import chain_graph, synthetic_space
        from repro.scheduler import DeviceSlot, LatencyOptimizer

        graph = chain_graph(n)
        spaces = {}
        for name in graph.kernel_names:
            spaces[(name, AMD_W9100.name)] = synthetic_space(
                name, AMD_W9100.name, DeviceType.GPU, [(lat_gpu, 100.0)]
            )
            spaces[(name, XILINX_7V3.name)] = synthetic_space(
                name, XILINX_7V3.name, DeviceType.FPGA, [(lat_fpga, 20.0)]
            )
        devices = [
            DeviceSlot("gpu0", AMD_W9100.name, DeviceType.GPU),
            DeviceSlot("fpga0", XILINX_7V3.name, DeviceType.FPGA),
        ]
        sched = LatencyOptimizer(spaces).schedule(graph, devices)
        # Precedence holds and makespan is at least the serial minimum.
        names = graph.kernel_names
        for a, b in zip(names, names[1:]):
            assert sched[b].start_ms >= sched[a].end_ms - 1e-9
        assert sched.makespan_ms >= n * min(lat_gpu, lat_fpga) * 0.999


# -- engine invariants (DESIGN.md section 6) ---------------------------------

#: Kernel shapes ``(elements, ops per element, pipeline steps)`` for the
#: random DAGs: minimum latencies from ~0.01 ms to ~15 ms on the
#: Setting-I GPU and FPGA, so queueing, GPU batching and FPGA
#: reconfiguration all occur.
KERNEL_SHAPES = (
    (4096, 8.0, 1),
    (1 << 20, 16.0, 10),
    (1 << 21, 32.0, 1),
    (1 << 22, 16.0, 20),
    (1 << 21, 64.0, 50),
    (65536, 64.0, 100),
)
SETTING_I = ("Homo-GPU", "Homo-FPGA", "Heter-Poly")


class EngineCase(NamedTuple):
    shapes: Tuple[int, ...]
    edges: FrozenSet[Tuple[int, int]]
    system: str
    rps: float
    horizon_ms: float
    seed: int
    faulty: bool
    mtbf_ms: float
    transients_per_s: float
    slowdown_prob: float


@st.composite
def engine_cases(draw):
    """A random DAG of 2-6 kernels with forward edges, one Setting-I
    system, a seeded Poisson stream, and with or without a seeded
    MTBF/MTTR fault schedule with transients and thermal slowdowns."""
    n = draw(st.integers(min_value=2, max_value=6))
    shapes = draw(
        st.lists(
            st.integers(0, len(KERNEL_SHAPES) - 1), min_size=n, max_size=n
        )
    )
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return EngineCase(
        shapes=tuple(shapes),
        edges=frozenset(draw(st.sets(st.sampled_from(pairs)))),
        system=draw(st.sampled_from(SETTING_I)),
        rps=draw(st.floats(min_value=5.0, max_value=200.0)),
        horizon_ms=draw(st.floats(min_value=500.0, max_value=3000.0)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        faulty=draw(st.booleans()),
        mtbf_ms=draw(st.floats(min_value=200.0, max_value=3000.0)),
        transients_per_s=draw(st.floats(min_value=0.5, max_value=20.0)),
        slowdown_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


@pytest.fixture(scope="module")
def kernel_spaces():
    """Design spaces per (kernel index, shape, system), shared by the
    examples of this module: exploration is deterministic."""
    return {}


def _case_app(case: EngineCase, kernel_spaces):
    """The case's application, system and design spaces (each kernel
    explored once per shape and system)."""
    system = setting("I", case.system)
    graph = KernelGraph("random")
    for i, shape in enumerate(case.shapes):
        graph.add_kernel(small_kernel(f"K{i}", *KERNEL_SHAPES[shape]))
    for a, b in sorted(case.edges):
        graph.connect(f"K{a}", f"K{b}")
    app = Application(
        "RANDOM",
        "random DAG",
        graph,
        {name: {DeviceType.GPU: 8, DeviceType.FPGA: 8} for name in graph.kernel_names},
    )
    targets = app.dse_targets()
    spaces = {}
    for i, shape in enumerate(case.shapes):
        key = (i, shape, case.system)
        if key not in kernel_spaces:
            kernel = graph.kernel(f"K{i}")
            kernel_spaces[key] = explore_application(
                [kernel], system.platforms, targets
            )
        spaces.update(kernel_spaces[key])
    return app, system, spaces


def _case_inputs(case: EngineCase, system):
    """The case's sorted arrival stream, fault schedule and priorities
    (the priorities parallel the sorted stream), plus the generator
    that drew them."""
    rng = np.random.default_rng(case.seed)
    arrivals = poisson_arrivals(case.rps, case.horizon_ms, rng=rng)
    assume(arrivals)
    faults = priorities = None
    if case.faulty:
        faults = FaultSchedule.from_mtbf(
            [d for d, _ in system.device_inventory()],
            case.horizon_ms,
            case.mtbf_ms,
            case.mtbf_ms / 2,
            seed=case.seed,
            transient_rate_per_s=case.transients_per_s,
            slowdown_prob=case.slowdown_prob,
        )
        priorities = rng.uniform(size=len(arrivals))
    return arrivals, faults, priorities, rng


def _simulate(case: EngineCase, kernel_spaces):
    """One traced ``run_simulation`` of the case on a shuffled copy of
    its stream; returns (app, arrivals, result, tracer)."""
    app, system, spaces = _case_app(case, kernel_spaces)
    arrivals, faults, priorities, rng = _case_inputs(case, system)
    tracer = SpanTracer()
    result = run_simulation(
        system,
        app,
        spaces,
        rng.permutation(arrivals).tolist(),
        seed=case.seed,
        faults=faults,
        priorities=priorities,
        tracer=tracer,
    )
    return app, arrivals, result, tracer


def _dispatched_edges(graph, tracer):
    """Yield ``(req, pred, kernel, pred_args, kernel_args)`` for each
    DAG edge whose two kernels a request dispatched, from each kernel's
    last ``kernel.dispatch`` (a retried kernel's last one is the attempt
    that survived)."""
    last = {
        (e.args["req"], e.args["kernel"]): e.args
        for e in tracer.by_kind("kernel.dispatch")
    }
    for (req, kernel), succ in last.items():
        for pred in graph.predecessors(kernel):
            before = last.get((req, pred))
            if before is not None:
                yield req, pred, kernel, before, succ


class TestEngineProperties:
    """DESIGN.md section 6's engine invariants, over random DAGs on the
    three Setting-I systems, fault-free and fault-injected, and the
    engine's identity with the ``LeafNode.submit`` reference loop."""

    @given(case=engine_cases())
    @settings(max_examples=25, deadline=None)
    def test_conservation(self, kernel_spaces, case):
        """One record per arrival, in sorted order; each is exactly one
        of served, shed or failed, and the shed and failed totals
        match the fault report (in-flight is zero after the run)."""
        _, arrivals, result, tracer = _simulate(case, kernel_spaces)
        records = result.requests
        assert [r.arrival_ms for r in records] == sorted(arrivals)
        for r in records:
            assert r.served + r.dropped + r.failed == 1
        shed = sum(r.dropped for r in records)
        failed = sum(r.failed for r in records)
        if result.faults is None:
            assert shed == failed == 0
        else:
            assert shed == result.faults.shed
            assert failed == result.faults.failed_requests
        admitted = [e.args["req"] for e in tracer.by_kind("request.admit")]
        assert len(admitted) == len(records)
        closed = [
            e.args["req"]
            for kind in ("request.complete", "request.shed", "request.abandon")
            for e in tracer.by_kind(kind)
        ]
        assert sorted(closed) == sorted(admitted)

    @given(case=engine_cases())
    @settings(max_examples=25, deadline=None)
    def test_dag_precedence_on_reserved_intervals(self, kernel_spaces, case):
        """Per request, a kernel's last dispatch starts no earlier than
        the reserved end of each predecessor's last dispatch."""
        app, _, _, tracer = _simulate(case, kernel_spaces)
        for req, pred, kernel, before, succ in _dispatched_edges(
            app.graph, tracer
        ):
            assert succ["start_ms"] >= before["end_ms"], (req, pred, kernel)

    @given(case=engine_cases())
    @settings(max_examples=25, deadline=None)
    def test_fpga_executions_never_overlap(self, kernel_spaces, case):
        """Positive-duration records on one FPGA never overlap.  A
        zero-duration record (an execution aborted at or before its
        start) may sit inside a live one."""
        _, _, result, _ = _simulate(case, kernel_spaces)
        for dev in result.node.devices:
            if dev.device_type != DeviceType.FPGA:
                continue
            live = sorted(
                (r.start_ms, r.end_ms)
                for r in dev.records
                if r.end_ms > r.start_ms
            )
            for (_, end), (start, _) in zip(live, live[1:]):
                assert start >= end, dev.device_id

    @given(case=engine_cases())
    @settings(max_examples=25, deadline=None)
    def test_engine_equals_submit_loop(self, kernel_spaces, case):
        """``run_simulation`` (the generated dispatch programs, with the
        fault variant on a fault-injected node) against a traced
        ``LeafNode.submit`` loop: identical request records (retries,
        shed and failed flags included), device execution rows, power
        bins, monitor state, resilience report and traced events."""
        app, system, spaces = _case_app(case, kernel_spaces)
        arrivals, faults, priorities, _ = _case_inputs(case, system)
        runs = []
        for simulate in (submit_loop, run_simulation):
            tracer = SpanTracer()
            result = simulate(
                system, app, spaces, arrivals, seed=case.seed,
                faults=faults, priorities=priorities, tracer=tracer,
            )
            node = result.node
            mon = node.monitor
            runs.append((
                [
                    (r.arrival_ms, r.completion_ms, r.predicted_ms,
                     r.retries, r.dropped, r.failed)
                    for r in result.requests
                ],
                [
                    (r.device_id, r.kernel_name, r.point_index, r.start_ms,
                     r.end_ms, r.power_w, r.batch)
                    for dev in node.devices
                    for r in dev.records
                ],
                result.power_bins_w.tolist(),
                (mon._correction, list(mon._latencies),
                 list(mon._arrival_times), mon._queue_depth),
                None if result.faults is None
                else repr(resilience_sig(result.faults)),
                [e.to_dict() for e in tracer.events],
            ))
        reference, engine = runs
        for aspect, a, b in zip(
            ("requests", "executions", "power", "monitor", "faults", "trace"),
            reference,
            engine,
        ):
            assert a == b, aspect

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "GPU batch growth: a request that joins an open GPU batch "
            "moves the batch's end later, but the earlier members' "
            "successors were already reserved and their completions "
            "already recorded (AcceleratorInstance._dispatch_gpu keeps "
            "the already-recorded timestamps)"
        ),
    )
    def test_dag_precedence_on_realized_executions(self):
        """Homo-GPU ASR, 80 rps for 4 s, seed 1: each kernel's last
        dispatch should start no earlier than the realized end of its
        predecessors' executions.  Request 3's ``FC_output`` starts on
        gpu0 at 144.479 ms while ``LSTM_acoustic``'s batch, grown to 3,
        runs there until 149.625 ms."""
        app = apps_mod.build("ASR")
        system = setting("I", "Homo-GPU")
        spaces = app.explore(system.platforms)
        arrivals = poisson_arrivals(
            80.0, 4_000.0, rng=np.random.default_rng(1)
        )
        tracer = SpanTracer()
        result = run_simulation(
            system, app, spaces, arrivals, seed=1, tracer=tracer
        )
        realized = {
            (r.device_id, r.kernel_name, r.point_index, round(r.start_ms, 6)):
                r.end_ms
            for dev in result.node.devices
            for r in dev.records
        }
        late = []
        for req, pred, kernel, before, succ in _dispatched_edges(
            app.graph, tracer
        ):
            end = realized[
                (before["device"], pred, before["point"], before["start_ms"])
            ]
            if succ["start_ms"] < end:
                late.append((req, pred, kernel, end - succ["start_ms"]))
        assert not late, f"{len(late)} edges start early, e.g. {late[0]}"
