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
from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    ClusterSimulation,
    SchedulingRequest,
)
from repro.faults import FaultSchedule
from repro.hardware import AMD_W9100, GPUModel, ImplConfig, PCIeLink, XILINX_7V3, FPGAModel
from repro.hardware.specs import DeviceType
from repro.obs import SpanTracer
from repro.optim import explore_kernel
from repro.patterns import Kernel, Map, PPG, Tensor
from repro.runtime import (
    energy_proportionality,
    max_throughput_under_qos,
    percentile_latency,
    poisson_arrivals,
    run_simulation,
    setting,
    synthesize_google_trace,
    trace_arrivals,
)
from repro.scheduler import (
    DeviceSlot,
    EnergyOptimizer,
    KernelGraph,
    LatencyOptimizer,
    PolyScheduler,
    StaticScheduler,
    min_latency_ms,
)

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
        front = synthetic_space("k", "p", DeviceType.GPU, points).pareto()
        min_lat = min(p[0] for p in points)
        min_pow = min(p[1] for p in points)
        assert front[0].latency_ms == min_lat
        assert front[-1].power_w == min_pow


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
        (l1,), _ = model.estimate_batch(Kernel("a", ppg1), [ImplConfig()])
        (l2,), _ = model.estimate_batch(Kernel("b", ppg2), [ImplConfig()])
        assert l2 >= l1 * 0.999

    @given(batch=st.integers(min_value=1, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_gpu_batch_latency_monotone(self, batch):
        x = Tensor("x", (1 << 16,))
        ppg = PPG("k")
        ppg.add_pattern(Map((x,), ops_per_element=16.0))
        k = Kernel("k", ppg)
        model = GPUModel(AMD_W9100)
        (lat_b, lat_b1), _ = model.estimate_batch(
            k, [ImplConfig()] * 2, [batch, batch + 1]
        )
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
def autoscaler_configs(draw, max_nodes=8):
    """Any config ``AutoscalerConfig`` accepts, on fleets of at most
    ``max_nodes`` nodes, with a target utilization of at least 1%."""
    min_nodes = draw(st.integers(min_value=1, max_value=min(4, max_nodes)))
    down = draw(st.floats(min_value=0.0, max_value=0.8))
    up = draw(st.floats(min_value=down + 0.01, max_value=2.0))
    target = st.floats(min_value=max(down, 0.01), max_value=up)
    return AutoscalerConfig(
        min_nodes=min_nodes,
        max_nodes=draw(st.integers(min_value=min_nodes, max_value=max_nodes)),
        eval_interval_ms=draw(st.floats(min_value=250.0, max_value=2_000.0)),
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


class FleetCase(NamedTuple):
    config: AutoscalerConfig
    mixed: bool
    trace_seed: int
    load: float
    seed: int
    faulty: bool
    mtbf_ms: float


#: A fleet case's day: 48 half-hour trace intervals, each compressed to
#: 500 ms of simulated time (a 24 s replay).
FLEET_INTERVAL_S = 1_800.0
FLEET_INTERVAL_MS = 500.0


@st.composite
def fleet_cases(draw):
    """A small fleet (1-4 nodes) under a random valid autoscaler config,
    Heter-Poly nodes or Heter-Poly and Homo-GPU in rotation, replaying a
    seeded synthetic day whose peak is 0.3-6x one node's capacity, with
    or without an MTBF/MTTR fault schedule with transients on the first
    node."""
    return FleetCase(
        config=draw(autoscaler_configs(max_nodes=4)),
        mixed=draw(st.booleans()),
        trace_seed=draw(st.integers(min_value=0, max_value=2**16)),
        load=draw(st.floats(min_value=0.3, max_value=6.0)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        faulty=draw(st.booleans()),
        mtbf_ms=draw(st.floats(min_value=300.0, max_value=3_000.0)),
    )


@pytest.fixture(scope="module")
def fleet_app():
    app = apps_mod.build("CS")
    return app, app.explore(setting("I", "Heter-Poly").platforms)


def _replay(case: FleetCase, fleet_app):
    """One fleet replay of the case; returns ``(arrivals, result)``."""
    app, spaces = fleet_app
    templates = [setting("I", "Heter-Poly")]
    if case.mixed:
        templates.append(setting("I", "Homo-GPU"))
    trace = synthesize_google_trace(
        interval_s=FLEET_INTERVAL_S, seed=case.trace_seed
    )
    horizon_ms = len(trace.utilization) * FLEET_INTERVAL_MS
    schedules = None
    if case.faulty:
        devices = [d for d, _ in templates[0].device_inventory()]
        schedules = {
            "node0": FaultSchedule.from_mtbf(
                devices, horizon_ms, case.mtbf_ms, case.mtbf_ms / 2,
                seed=case.seed, transient_rate_per_s=2.0,
            )
        }
    sim = ClusterSimulation(
        templates, app, spaces, config=case.config, seed=case.seed,
        fault_schedules=schedules,
    )
    peak_rps = case.load * sim._template_capacity(templates[0])
    arrivals = trace_arrivals(
        trace.utilization, FLEET_INTERVAL_MS, peak_rps, sim.arrival_rng()
    )
    assume(arrivals)
    return arrivals, sim.run(arrivals, horizon_ms=horizon_ms)


class TestFleetReplayProperties:
    """DESIGN.md section 6's fleet replay invariants, over small fleets
    with random autoscaler configs, fault-free and fault-injected."""

    @given(case=fleet_cases())
    @settings(max_examples=50, deadline=None)
    def test_replay_invariants(self, fleet_app, case):
        arrivals, result = _replay(case, fleet_app)
        # One record per arrival, in arrival order.
        assert [r.arrival_ms for r in result.requests] == sorted(arrivals)
        assert len(result.node_ids) == len(arrivals)
        # Each request went to a node that was serving at its arrival:
        # ready by then, and not terminated at or before it.
        nodes = {n.node_id: n for n in result.nodes}
        for record, node_id in zip(result.requests, result.node_ids):
            node = nodes[node_id]
            assert node.ready_ms <= record.arrival_ms
            if node.terminated_ms is not None:
                assert record.arrival_ms < node.terminated_ms
        # After each evaluation the live count lies in the config's
        # bounds.
        cfg = case.config
        for iv in result.intervals:
            assert cfg.min_nodes <= iv.n_serving + iv.n_warming <= cfg.max_nodes
            assert iv.n_serving >= 1


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
SYSTEMS = ("Homo-GPU", "Homo-FPGA", "Heter-Poly")
#: Design points per (kernel, platform) space of a random DAG.
DESIGN_POINTS = 8


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
def random_dags(draw):
    """A random DAG of 2-6 kernels with forward edges: each kernel's
    ``KERNEL_SHAPES`` index and the edges as index pairs."""
    n = draw(st.integers(min_value=2, max_value=6))
    shapes = draw(
        st.lists(
            st.integers(0, len(KERNEL_SHAPES) - 1), min_size=n, max_size=n
        )
    )
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return tuple(shapes), frozenset(draw(st.sets(st.sampled_from(pairs))))


@st.composite
def engine_cases(draw):
    """A random DAG, one Setting-I system, a seeded Poisson stream, and
    with or without a seeded MTBF/MTTR fault schedule with transients
    and thermal slowdowns."""
    shapes, edges = draw(random_dags())
    return EngineCase(
        shapes=shapes,
        edges=edges,
        system=draw(st.sampled_from(SYSTEMS)),
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
    """Design spaces per (kernel index, shape, platform), shared by the
    examples of this module: exploration is deterministic."""
    return {}


def _random_graph(shapes, edges) -> KernelGraph:
    graph = KernelGraph("random")
    for i, shape in enumerate(shapes):
        graph.add_kernel(small_kernel(f"K{i}", *KERNEL_SHAPES[shape]))
    for a, b in sorted(edges):
        graph.connect(f"K{a}", f"K{b}")
    return graph


def _explored(graph, shapes, platforms, kernel_spaces):
    """The graph's design spaces on the platforms, each kernel explored
    once per shape and platform."""
    spaces = {}
    for i, shape in enumerate(shapes):
        name = f"K{i}"
        for spec in platforms:
            key = (i, shape, spec.name)
            if key not in kernel_spaces:
                kernel_spaces[key] = explore_kernel(
                    graph.kernel(name), spec, DESIGN_POINTS
                )
            spaces[(name, spec.name)] = kernel_spaces[key]
    return spaces


def _case_app(case: EngineCase, kernel_spaces):
    """The case's application, system and design spaces."""
    system = setting("I", case.system)
    graph = _random_graph(case.shapes, case.edges)
    points = {DeviceType.GPU: DESIGN_POINTS, DeviceType.FPGA: DESIGN_POINTS}
    app = Application(
        "RANDOM",
        "random DAG",
        graph,
        {name: points for name in graph.kernel_names},
    )
    return app, system, _explored(graph, case.shapes, system.platforms, kernel_spaces)


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
                    (r.arrival_ms, r.completion_ms, r.retries, r.dropped,
                     r.failed)
                    for r in result.requests
                ],
                [
                    (r.device_id, r.kernel_name, r.point_index, r.start_ms,
                     r.end_ms, r.power_w, r.batch)
                    for dev in node.devices
                    for r in dev.records
                ],
                result.power_bins_w.tolist(),
                (list(mon._latencies), list(mon._arrival_times)),
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


# -- scheduler invariants (DESIGN.md section 6) ------------------------------

SETTINGS = ("I", "II", "III")


class SchedulerCase(NamedTuple):
    shapes: Tuple[int, ...]
    edges: FrozenSet[Tuple[int, int]]
    setting: str
    system: str
    horizons_ms: Tuple[float, ...]
    slack: float


@st.composite
def scheduler_cases(draw):
    """A random DAG on one Setting I-III system's device pool, each
    device queued to a random horizon (Eq. 4's T_queue, zero on about
    half of them), and a latency bound as a multiple (``slack``) of
    the Step-1 makespan."""
    shapes, edges = draw(random_dags())
    setting_name = draw(st.sampled_from(SETTINGS))
    system = draw(st.sampled_from(SYSTEMS))
    n_devices = len(setting(setting_name, system).device_inventory())
    horizon = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0))
    return SchedulerCase(
        shapes=shapes,
        edges=edges,
        setting=setting_name,
        system=system,
        horizons_ms=tuple(
            draw(st.lists(horizon, min_size=n_devices, max_size=n_devices))
        ),
        slack=draw(st.floats(min_value=0.8, max_value=4.0)),
    )


def _schedule_inputs(case: SchedulerCase, kernel_spaces):
    """The case's graph, design spaces and queued device slots."""
    system = setting(case.setting, case.system)
    graph = _random_graph(case.shapes, case.edges)
    spaces = _explored(graph, case.shapes, system.platforms, kernel_spaces)
    slots = [
        DeviceSlot(device_id, spec.name, spec.device_type, horizon)
        for (device_id, spec), horizon in zip(
            system.device_inventory(), case.horizons_ms
        )
    ]
    return graph, spaces, slots


def _timetable(schedule):
    return [
        (a.kernel_name, a.device_id, a.point, a.start_ms, a.end_ms)
        for a in schedule
    ]


def _check_timetable(graph, schedule, slots, pcie):
    """Transfer-charged precedence, device exclusivity and horizons.

    Walked in placement order: each kernel starts exactly at its Eq. 4
    time, the later of its predecessors' ends (plus the PCIe transfer
    across devices) and its device's free time, which is the slot's
    horizon until a kernel placed earlier on that device ends.
    """
    assert {a.kernel_name for a in schedule} == set(graph.kernel_names)
    free = {s.device_id: s.available_at_ms for s in slots}
    for a in schedule:
        ready = 0.0
        for pred in graph.predecessors(a.kernel_name):
            p = schedule[pred]
            arrival = p.end_ms
            if p.device_id != a.device_id:
                arrival += pcie.device_to_device_ms(
                    graph.edge_bytes(pred, a.kernel_name)
                )
            assert a.start_ms >= arrival
            ready = max(ready, arrival)
        assert a.start_ms >= free[a.device_id]
        assert a.start_ms == max(ready, free[a.device_id])
        assert a.end_ms == a.start_ms + a.point.latency_ms
        free[a.device_id] = a.end_ms


class TestSchedulerProperties:
    @given(
        lat_gpu=st.floats(min_value=1.0, max_value=100.0),
        lat_fpga=st.floats(min_value=1.0, max_value=100.0),
        n=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_chain_schedule_invariants(self, lat_gpu, lat_fpga, n):
        from conftest import chain_graph

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

    @given(case=scheduler_cases())
    @settings(max_examples=150, deadline=None)
    def test_step1_invariants(self, kernel_spaces, case):
        """Step 1 keeps the timetable invariants, runs each kernel's
        fastest point on its device, and ends by the latest horizon plus
        every kernel's minimum latency and largest in-edge transfer."""
        graph, spaces, slots = _schedule_inputs(case, kernel_spaces)
        opt = LatencyOptimizer(spaces)
        sched = opt.schedule(graph, slots)
        _check_timetable(graph, sched, slots, opt.pcie)
        platform_of = {s.device_id: s.platform for s in slots}
        for a in sched:
            space = spaces[(a.kernel_name, platform_of[a.device_id])]
            assert a.point == space.min_latency()
        platforms = sorted(set(platform_of.values()))
        bound = max(s.available_at_ms for s in slots)
        for name in graph.kernel_names:
            bound += min_latency_ms(name, spaces, platforms)
            bound += max(
                (
                    opt.pcie.device_to_device_ms(graph.edge_bytes(pred, name))
                    for pred in graph.predecessors(name)
                ),
                default=0.0,
            )
        assert sched.makespan_ms <= bound * (1 + 1e-12)

    @given(case=scheduler_cases())
    @settings(max_examples=150, deadline=None)
    def test_retime_reproduces_step1(self, kernel_spaces, case):
        graph, spaces, slots = _schedule_inputs(case, kernel_spaces)
        opt = LatencyOptimizer(spaces)
        sched = opt.schedule(graph, slots)
        choices = {a.kernel_name: (a.point, a.device_id) for a in sched}
        assert _timetable(opt.retime(graph, slots, choices)) == _timetable(sched)

    @given(case=scheduler_cases())
    @settings(max_examples=150, deadline=None)
    def test_step2_invariants(self, kernel_spaces, case):
        """Replayed from Step 1, every accepted swap retimes to its
        recorded makespan within the bound and saves more than
        ``MIN_GAIN_MJ``; there are at most ``MAX_ITERS`` of them, and
        the last replay is the final schedule."""
        graph, spaces, slots = _schedule_inputs(case, kernel_spaces)
        step1 = LatencyOptimizer(spaces).schedule(graph, slots)
        bound = case.slack * step1.makespan_ms
        scheduler = PolyScheduler(spaces, bound)
        final, steps = scheduler.schedule(graph, slots)
        assert len(steps) <= EnergyOptimizer.MAX_ITERS
        platform_of = {s.device_id: s.platform for s in slots}
        current = step1
        choices = {a.kernel_name: (a.point, a.device_id) for a in step1}
        for step in steps:
            before = current[step.kernel_name]
            assert (before.point, before.device_id) == (step.before, step.device_before)
            saved = step.before.energy_mj - step.after.energy_mj
            assert saved == step.energy_saved_mj > EnergyOptimizer.MIN_GAIN_MJ
            fastest = spaces[(step.kernel_name, platform_of[step.device_after])]
            assert step.after.latency_ms <= (
                fastest.min_latency().latency_ms * EnergyOptimizer.MAX_SLOWDOWN
            )
            choices[step.kernel_name] = (step.after, step.device_after)
            retimed = scheduler.latency_optimizer.retime(graph, slots, choices)
            assert retimed.makespan_ms == step.makespan_ms <= bound
            assert retimed.total_energy_mj < current.total_energy_mj
            current = retimed
        assert _timetable(final) == _timetable(current)
        _check_timetable(graph, final, slots, scheduler.latency_optimizer.pcie)

    @given(case=scheduler_cases())
    @settings(max_examples=150, deadline=None)
    def test_static_baseline_invariants(self, kernel_spaces, case):
        """The static baseline keeps the timetable invariants with one
        frozen kind of point (all most efficient or all fastest) and
        makes no energy swaps."""
        graph, spaces, slots = _schedule_inputs(case, kernel_spaces)
        bound = case.slack * LatencyOptimizer(spaces).schedule(graph, slots).makespan_ms
        sched, steps = StaticScheduler(spaces, bound).schedule(graph, slots)
        assert steps == []
        _check_timetable(graph, sched, slots, PCIeLink())
        platform_of = {s.device_id: s.platform for s in slots}
        used = [
            (a.point, spaces[(a.kernel_name, platform_of[a.device_id])])
            for a in sched
        ]
        assert all(p == space.max_efficiency() for p, space in used) or all(
            p == space.min_latency() for p, space in used
        )
