"""Simulation engine: A/B identity vs. the ``LeafNode.submit`` loop,
fleet replays vs. golden digests, the fleet drive loop's evaluation
ordering, arrival input and the batched load generator.  Conservation,
DAG precedence and FPGA exclusivity over random DAGs and fault
schedules are property-tested in ``tests/test_properties.py``.

The contract: seeded ``run_simulation`` runs are float-identical to
feeding the same stream through ``LeafNode.submit`` one request at a
time — same request latencies, same power bins, same monitor state,
same obs event stream, fault-free and under chaos (the fault-injected
A/B property test lives in ``tests/test_properties.py``).  Fleet replays have
no per-request reference driver, so they are held to the digests in
``tests/golden/fleet_digests.json``.
"""

import contextlib
import signal

import numpy as np
import pytest

from repro import apps as apps_mod
from repro import runtime
from repro.faults import FaultInjector, FaultSchedule
from repro.obs.summary import emit_execution_spans
from repro.runtime import (
    SimulationResult,
    poisson_arrivals,
    run_simulation,
    setting,
)
from repro.runtime.node import NOISE_SIGMA, LeafNode
from repro.runtime.simulation import _power_timeline

from golden_cases import (
    FLEET_FILE,
    digest,
    fault_fleet_digest,
    fleet_sig,
    load,
    run_fault_injected_fleet,
    run_flash_crowd_fleet,
    run_trace_replay,
    run_traced_fault_injected_fleet,
)

FLEET_GOLDEN = load(FLEET_FILE)


@pytest.fixture(scope="module")
def asr():
    """ASR on Setting-I Heter-Poly: the DAG app (diamond joins, FPGA
    pool + one GPU) — the hardest case for the incremental EST tables."""
    app = apps_mod.build("ASR")
    system = setting("I", "Heter-Poly")
    return app, system, app.explore(system.platforms)


@pytest.fixture(scope="module")
def wt():
    """WT: a linear 3-kernel chain."""
    app = apps_mod.build("WT")
    system = setting("I", "Heter-Poly")
    return app, system, app.explore(system.platforms)


def request_sig(result):
    return [
        (r.arrival_ms, r.completion_ms, r.predicted_ms, r.served)
        for r in result.requests
    ]


def node_sig(result):
    node = result.node
    mon = node.monitor
    return (
        mon._correction,
        list(mon._latencies),
        list(mon._arrival_times),
        [
            (
                rec.device_id,
                rec.kernel_name,
                rec.point_index,
                rec.start_ms,
                rec.end_ms,
                rec.power_w,
                rec.batch,
            )
            for dev in node.devices
            for rec in dev.records
        ],
    )


def submit_loop(
    system, app, spaces, arrivals, seed=0, faults=None, tracer=None,
    priorities=None,
):
    """The reference path: every arrival through ``LeafNode.submit`` in
    order, with ``run_simulation``'s default power binning and span
    accounting.  ``priorities`` parallels the sorted stream, as in
    ``run_simulation``."""
    bin_ms = 1000.0
    node = LeafNode(system, app, spaces, seed=seed, tracer=tracer)
    injector = None
    if faults is not None:
        injector = FaultInjector(faults)
        injector.bind(node)
    ordered = sorted(arrivals)
    if priorities is None:
        priorities = [1.0] * len(ordered)
    requests = [node.submit(t, p) for t, p in zip(ordered, priorities)]
    if tracer is not None:
        emit_execution_spans(tracer, node)
    span_ms = max(ordered[-1], bin_ms)
    return SimulationResult(
        system=system.codename,
        app=app.name,
        duration_ms=max(max(r.completion_ms for r in requests), ordered[-1]),
        requests=requests,
        power_bins_w=_power_timeline(node, span_ms, bin_ms),
        bin_ms=bin_ms,
        warmup_ms=0.1 * span_ms,
        faults=injector.report if injector is not None else None,
        node=node,
    )


def ab(app, system, spaces, arrivals, **kw):
    """(reference submit loop, run_simulation) on the same stream."""
    reference = submit_loop(system, app, spaces, arrivals, **kw)
    event = run_simulation(system, app, spaces, arrivals, **kw)
    return reference, event


class TestArrivalInput:
    def test_run_simulation_accepts_ndarray(self, wt):
        """An ndarray stream runs like the list it holds, and its
        requests carry Python floats."""
        app, system, spaces = wt
        arrivals = poisson_arrivals(
            40.0, 2_000.0, rng=np.random.default_rng(5)
        )
        by_list = run_simulation(system, app, spaces, arrivals, seed=0)
        by_array = run_simulation(
            system, app, spaces, np.asarray(arrivals), seed=0
        )
        assert request_sig(by_array) == request_sig(by_list)
        assert all(
            type(t) is float
            for r in by_array.requests
            for t in (r.arrival_ms, r.completion_ms)
        )
        assert by_array.power_bins_w.tolist() == by_list.power_bins_w.tolist()


class TestBatchedLoadgen:
    def test_poisson_matches_scalar_reference(self):
        """The chunked cumsum draw must reproduce the scalar ``t += g``
        loop bit-for-bit (same RNG consumption, same float order)."""
        rng = np.random.default_rng(42)
        batched = poisson_arrivals(200.0, 5_000.0, rng=rng)

        rng = np.random.default_rng(42)
        mean_gap = 1000.0 / 200.0
        n_est = max(int(5_000.0 / mean_gap * 1.3) + 16, 16)
        scalar, t = [], 0.0
        done = False
        while not done:
            gaps = rng.exponential(mean_gap, size=n_est)
            for k, g in enumerate(gaps):
                t = float(np.cumsum(np.concatenate(((t,), gaps[k : k + 1])))[1])
                if t >= 5_000.0:
                    done = True
                    break
                scalar.append(t)
        assert batched == scalar

    def test_empty_and_invalid_streams(self):
        assert poisson_arrivals(0.0, 1_000.0) == []
        with pytest.raises(ValueError):
            poisson_arrivals(10.0, 0.0)


class TestGoldenFaultFree:
    def test_asr_identity(self, asr):
        app, system, spaces = asr
        arrivals = poisson_arrivals(
            120.0, 4_000.0, rng=np.random.default_rng(3)
        )
        reference, event = ab(app, system, spaces, arrivals, seed=3)
        assert request_sig(reference) == request_sig(event)
        assert reference.power_bins_w.tolist() == event.power_bins_w.tolist()
        assert node_sig(reference) == node_sig(event)

    def test_wt_identity(self, wt):
        app, system, spaces = wt
        arrivals = poisson_arrivals(
            150.0, 4_000.0, rng=np.random.default_rng(9)
        )
        reference, event = ab(app, system, spaces, arrivals, seed=1)
        assert request_sig(reference) == request_sig(event)
        assert reference.power_bins_w.tolist() == event.power_bins_w.tolist()
        assert node_sig(reference) == node_sig(event)

    @pytest.mark.parametrize("system_name", ["Homo-GPU", "Homo-FPGA"])
    def test_homogeneous_systems(self, system_name):
        app = apps_mod.build("ASR")
        system = setting("I", system_name)
        spaces = app.explore(system.platforms)
        arrivals = poisson_arrivals(
            60.0, 2_000.0, rng=np.random.default_rng(2)
        )
        reference, event = ab(app, system, spaces, arrivals, seed=2)
        assert request_sig(reference) == request_sig(event)
        assert reference.power_bins_w.tolist() == event.power_bins_w.tolist()

    def test_overload_replans_identical(self, asr):
        """High load crosses several replan intervals and forces the
        overflow-alternate path; the engines must still agree."""
        app, system, spaces = asr
        arrivals = poisson_arrivals(
            400.0, 3_000.0, rng=np.random.default_rng(3)
        )
        reference, event = ab(app, system, spaces, arrivals, seed=3)
        assert request_sig(reference) == request_sig(event)
        assert node_sig(reference) == node_sig(event)

    def test_pareto_and_flash_crowd_streams(self, wt):
        app, system, spaces = wt
        streams = {
            "pareto": runtime.pareto_poisson_arrivals(
                80.0, 3_000.0, rng=np.random.default_rng(4)
            ),
            "flash_crowd": runtime.flash_crowd_arrivals(
                40.0, 3_000.0, 1_000.0, 500.0, rng=np.random.default_rng(4)
            ),
        }
        for kind, arrivals in streams.items():
            reference, event = ab(app, system, spaces, arrivals, seed=4)
            assert request_sig(reference) == request_sig(event), kind


@contextlib.contextmanager
def deadline(seconds):
    """Fail a call still running after ``seconds`` instead of hanging
    the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


#: A second arrival on the rounded replan boundary of the first: their
#: sum with the 250 ms interval rounds down onto the second, while their
#: difference is exactly 249.99999999999994.  A program that stopped on
#: ``t >= last + interval`` never admitted it: the driver, which
#: replans on ``t - last >= interval``, re-entered the program forever.
BOUNDARY_ARRIVALS = [263.00787580820344, 513.0078758082034]


class TestReplanBoundary:
    @pytest.mark.parametrize("system_name", ["Homo-GPU", "Homo-FPGA", "Heter-Poly"])
    def test_engine_equals_submit_loop(self, system_name):
        first, second = BOUNDARY_ARRIVALS
        assert second >= first + 250.0 and second - first < 250.0
        app = apps_mod.build("ASR")
        system = setting("I", system_name)
        spaces = app.explore(system.platforms)
        with deadline(60):
            reference, event = ab(app, system, spaces, BOUNDARY_ARRIVALS)
        assert request_sig(event) == request_sig(reference)
        assert len(event.requests) == 2

    def test_one_node_fleet_serves_both(self, asr):
        from repro.cluster import AutoscalerConfig, ClusterSimulation

        app, system, spaces = asr
        sim = ClusterSimulation(
            system, app, spaces,
            config=AutoscalerConfig(min_nodes=1, max_nodes=1),
        )
        with deadline(60):
            result = sim.run(BOUNDARY_ARRIVALS)
        assert [r.arrival_ms for r in result.requests] == BOUNDARY_ARRIVALS


class TestGoldenChaos:
    def test_chaos_identity(self, asr):
        """A crash-and-recover run on the engine's fault variant —
        detection, failover replans, retries handed back to the
        reference retry path — matches the submit loop exactly.
        Random DAGs under MTBF schedules with transients, slowdowns and
        priorities are A/B-tested in ``tests/test_properties.py``."""
        app, system, spaces = asr
        arrivals = poisson_arrivals(
            60.0, 4_000.0, rng=np.random.default_rng(8)
        )
        faults = FaultSchedule.single_crash(
            "fpga0", at_ms=1_000.0, recover_at_ms=2_500.0
        )
        reference, event = ab(
            app, system, spaces, arrivals, seed=8, faults=faults
        )
        assert request_sig(reference) == request_sig(event)
        assert reference.power_bins_w.tolist() == event.power_bins_w.tolist()
        assert reference.faults.summary() == event.faults.summary()
        assert reference.availability == event.availability

    def test_traced_identity(self, asr):
        """Same event stream, and the node and tracer left where a
        traced ``submit`` loop leaves them."""
        from repro.obs import SpanTracer

        app, system, spaces = asr
        arrivals = poisson_arrivals(
            40.0, 2_000.0, rng=np.random.default_rng(5)
        )
        a, b = SpanTracer(), SpanTracer()
        reference = submit_loop(system, app, spaces, arrivals, seed=5, tracer=a)
        event = run_simulation(system, app, spaces, arrivals, seed=5, tracer=b)
        assert len(a.events) == len(b.events)
        assert [e.to_dict() for e in a.events] == [
            e.to_dict() for e in b.events
        ]
        assert node_sig(reference) == node_sig(event)
        left = [
            (tr.now_ms, r.node._req_seq, r.node._current_req)
            for tr, r in ((a, reference), (b, event))
        ]
        assert left[0] == left[1]


class TestTraceSchema:
    @pytest.mark.parametrize("crash", [False, True], ids=["fault-free", "crash"])
    def test_engine_checks_every_event(self, asr, monkeypatch, crash):
        """A control-plane event missing a schema field fails a traced
        run on the engine, fault-free or fault-injected, as it fails a
        traced ``submit`` loop."""
        from repro.obs import SpanTracer
        from repro.scheduler import SystemMonitor

        snapshot = SystemMonitor.snapshot

        def without_tail(monitor, now_ms):
            snap = snapshot(monitor, now_ms)
            del snap["tail_ms"]
            return snap

        monkeypatch.setattr(SystemMonitor, "snapshot", without_tail)
        app, system, spaces = asr
        arrivals = poisson_arrivals(
            40.0, 2_000.0, rng=np.random.default_rng(5)
        )
        faults = (
            FaultSchedule.single_crash("fpga0", at_ms=500.0, recover_at_ms=1_200.0)
            if crash
            else None
        )
        missing = r"missing fields \['tail_ms'\]"
        with pytest.raises(ValueError, match=missing):
            submit_loop(
                system, app, spaces, arrivals, faults=faults,
                tracer=SpanTracer(),
            )
        with pytest.raises(ValueError, match=missing):
            run_simulation(
                system, app, spaces, arrivals, faults=faults,
                tracer=SpanTracer(),
            )


class TestNoiseBuffer:
    def test_buffered_draws_match_scalar_stream(self):
        """Vectorized lognormal refills replay the exact scalar stream
        (the engine's buffered draws vs. ``submit``'s scalar ones — the
        bit-identity contract's only RNG-order dependency)."""
        n = 5_000  # spans multiple 2048-sized refills
        scalar_rng = np.random.default_rng(123)
        expect = [scalar_rng.lognormal(0.0, NOISE_SIGMA) for _ in range(n)]
        buf_rng = np.random.default_rng(123)
        got = []
        buf = np.empty(0)
        pos = 0
        for _ in range(n):
            if pos >= len(buf):
                buf = buf_rng.lognormal(0.0, NOISE_SIGMA, size=2048)
                pos = 0
            got.append(float(buf[pos]))
            pos += 1
        assert got == expect


class TestClusterGolden:
    def test_fleet_replay_identity(self, asr):
        result = run_flash_crowd_fleet(asr)
        assert digest(fleet_sig(result)) == FLEET_GOLDEN["flash_crowd"]

    def test_trace_replay_identity(self, asr):
        """``replay`` generates its own arrivals from the trace; the
        digest pins those floats along with the fleet's decisions."""
        result = run_trace_replay(asr)
        assert digest(fleet_sig(result)) == FLEET_GOLDEN["trace_replay"]


class TestFleetDriveLoop:
    def test_evaluation_precedes_same_time_arrivals(self, asr):
        """An evaluation due at ``t`` counts the arrivals before ``t``:
        the arrivals at ``t`` fall in the next window."""
        from repro.cluster import AutoscalerConfig, ClusterSimulation

        app, system, spaces = asr
        sim = ClusterSimulation(
            system, app, spaces,
            config=AutoscalerConfig(min_nodes=1, max_nodes=1),
        )
        result = sim.run(
            [500.0, 1_000.0, 1_000.0, 1_500.0, 2_000.0], horizon_ms=3_000.0
        )
        assert [iv.t_ms for iv in result.intervals] == [1_000.0, 2_000.0, 3_000.0]
        assert [iv.arrivals for iv in result.intervals] == [1, 3, 1]
        assert len(result.requests) == 5


class TestFleetDriverIdentity:
    """Golden fleet replays on the paths the flash-crowd replay leaves
    out: serving-set growth inside an evaluation window, and a
    fault-injected node the router must steer around."""

    @pytest.mark.parametrize("warmup_ms", [1500.0, 1234.5])
    def test_promotions_inside_arrival_chunks(self, asr, warmup_ms):
        result = run_flash_crowd_fleet(asr, warmup_ms)
        assert (
            digest(fleet_sig(result)) == FLEET_GOLDEN[f"warmup_{warmup_ms}"]
        )
        # A warm-up off the 1000 ms evaluation grid promotes nodes
        # between evaluations: the serving set grows inside a window,
        # and the new node takes requests before the next evaluation.
        eval_ms = result.interval_ms
        off_grid = {
            n.node_id: (n.ready_ms // eval_ms + 1) * eval_ms
            for n in result.nodes
            if n.ready_ms % eval_ms
        }
        assert off_grid
        early = [
            r.arrival_ms
            for node_id, r in zip(result.node_ids, result.requests)
            if node_id in off_grid and r.arrival_ms < off_grid[node_id]
        ]
        assert early

    def test_fault_injected_fleet(self, asr):
        result = run_fault_injected_fleet(asr)
        assert fault_fleet_digest(result) == FLEET_GOLDEN["fault_injected"]
        node0 = result.nodes[0]
        assert node0.node_id == "node0"
        assert node0.schedulable_fraction < 1.0


class TestKeptRoutingState:
    """The dispatcher scores candidates from each node's kept latest
    device horizon and health.  The digests alone might not catch a
    stale value, so every route call checks them against the devices."""

    @pytest.mark.parametrize(
        "case",
        ["flash_crowd", "warmup_1234.5", "fault_injected", "traced_fault_injected"],
    )
    def test_kept_state_matches_devices_at_every_route(
        self, asr, monkeypatch, case
    ):
        from repro.cluster import ClusterDispatcher

        route = ClusterDispatcher.route
        calls = []

        def checked_route(self, now_ms, nodes, *args, **kwargs):
            for node in nodes:
                devices = node.leaf.devices
                assert node.horizon_ms == max(d.horizon_ms for d in devices)
                assert node.health == node.schedulable_fraction
            calls.append(now_ms)
            return route(self, now_ms, nodes, *args, **kwargs)

        monkeypatch.setattr(ClusterDispatcher, "route", checked_route)
        run = {
            "flash_crowd": run_flash_crowd_fleet,
            "warmup_1234.5": lambda a: run_flash_crowd_fleet(a, 1234.5),
            "fault_injected": run_fault_injected_fleet,
            "traced_fault_injected": (
                lambda a: run_traced_fault_injected_fleet(a)[0]
            ),
        }[case]
        result = run(asr)
        assert calls == [r.arrival_ms for r in result.requests]
