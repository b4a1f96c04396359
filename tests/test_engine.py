"""Event-heap engine: golden A/B identity vs. the legacy loop, heap
ordering, ArrivalSpec, and the conservation checks of validation mode.

The tentpole contract: seeded runs through ``engine="event"`` are
float-identical to ``engine="legacy"`` — same request latencies, same
power bins, same obs event stream, fault-free and under chaos.  These
tests are the gate that lets the legacy loop eventually be deleted.
"""

import numpy as np
import pytest

from repro import apps as apps_mod
from repro import runtime
from repro.faults import FaultSchedule
from repro.runtime import (
    ArrivalSpec,
    EventHeap,
    EventHeapEngine,
    EventKind,
    poisson_arrivals,
    run_simulation,
    setting,
)
from repro.runtime.node import LeafNode


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


def ab(app, system, spaces, arrivals, **kw):
    legacy = run_simulation(
        system, app, spaces, arrivals, engine="legacy", **kw
    )
    event = run_simulation(system, app, spaces, arrivals, engine="event", **kw)
    return legacy, event


class TestEventHeap:
    def test_pops_in_time_order(self):
        heap = EventHeap()
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            heap.push(t, EventKind.ARRIVAL)
        assert [heap.pop().t_ms for _ in range(5)] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_same_timestamp_kind_priority(self):
        """At one timestamp: scaling decisions and faults precede
        completions, which precede new arrivals and dispatches."""
        heap = EventHeap()
        kinds = [
            EventKind.DISPATCH,
            EventKind.ARRIVAL,
            EventKind.KERNEL_COMPLETE,
            EventKind.HEARTBEAT,
            EventKind.FAULT,
            EventKind.SCALE,
        ]
        for kind in kinds:
            heap.push(10.0, kind)
        assert [heap.pop().kind for _ in range(len(kinds))] == sorted(
            kinds, key=int
        )

    def test_fifo_among_equal_events(self):
        heap = EventHeap()
        for payload in ("a", "b", "c"):
            heap.push(1.0, EventKind.ARRIVAL, payload)
        assert [heap.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_peek_len_bool(self):
        heap = EventHeap()
        assert not heap and heap.peek() is None
        heap.push(2.0, EventKind.FAULT, "x")
        assert heap and len(heap) == 1
        assert heap.peek().t_ms == 2.0
        assert heap.pop().payload == "x"
        assert len(heap) == 0


class TestArrivalSpec:
    def test_poisson_spec_matches_direct_call(self):
        spec = ArrivalSpec.poisson(80.0, 3_000.0, seed=7)
        direct = poisson_arrivals(
            80.0, 3_000.0, rng=np.random.default_rng(7)
        )
        assert spec.generate() == direct

    def test_supplied_rng_overrides_seed(self):
        spec = ArrivalSpec.poisson(80.0, 3_000.0, seed=7)
        a = spec.generate(np.random.default_rng(11))
        b = poisson_arrivals(80.0, 3_000.0, rng=np.random.default_rng(11))
        assert a == b

    def test_constant_kind_needs_no_rng(self):
        spec = ArrivalSpec.constant(10.0, 1_000.0)
        assert spec.generate() == runtime.constant_arrivals(10.0, 1_000.0)

    def test_trace_kind(self):
        util = (0.2, 0.8, 0.5)
        spec = ArrivalSpec.trace(util, 500.0, 100.0, seed=3)
        direct = runtime.trace_arrivals(
            util, 500.0, 100.0, rng=np.random.default_rng(3)
        )
        assert spec.generate() == direct

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            ArrivalSpec("bursty")

    def test_run_simulation_accepts_spec(self, wt):
        app, system, spaces = wt
        spec = ArrivalSpec.poisson(40.0, 2_000.0, seed=5)
        by_spec = run_simulation(system, app, spaces, spec, seed=0)
        by_list = run_simulation(system, app, spaces, spec.generate(), seed=0)
        assert request_sig(by_spec) == request_sig(by_list)


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
        legacy, event = ab(app, system, spaces, arrivals, seed=3)
        assert request_sig(legacy) == request_sig(event)
        assert legacy.power_bins_w.tolist() == event.power_bins_w.tolist()
        assert node_sig(legacy) == node_sig(event)

    def test_wt_identity(self, wt):
        app, system, spaces = wt
        arrivals = poisson_arrivals(
            150.0, 4_000.0, rng=np.random.default_rng(9)
        )
        legacy, event = ab(app, system, spaces, arrivals, seed=1)
        assert request_sig(legacy) == request_sig(event)
        assert legacy.power_bins_w.tolist() == event.power_bins_w.tolist()
        assert node_sig(legacy) == node_sig(event)

    @pytest.mark.parametrize("system_name", ["Homo-GPU", "Homo-FPGA"])
    def test_homogeneous_systems(self, system_name):
        app = apps_mod.build("ASR")
        system = setting("I", system_name)
        spaces = app.explore(system.platforms)
        arrivals = poisson_arrivals(
            60.0, 2_000.0, rng=np.random.default_rng(2)
        )
        legacy, event = ab(app, system, spaces, arrivals, seed=2)
        assert request_sig(legacy) == request_sig(event)
        assert legacy.power_bins_w.tolist() == event.power_bins_w.tolist()

    def test_overload_replans_identical(self, asr):
        """High load crosses several replan intervals and forces the
        overflow-alternate path; the engines must still agree."""
        app, system, spaces = asr
        arrivals = poisson_arrivals(
            400.0, 3_000.0, rng=np.random.default_rng(3)
        )
        legacy, event = ab(app, system, spaces, arrivals, seed=3)
        assert request_sig(legacy) == request_sig(event)
        assert node_sig(legacy) == node_sig(event)

    def test_plan_cache_composes(self, asr):
        """event + SchedulePlanCache (the full fast path, compiled
        dispatch programs included) still matches the legacy loop."""
        from repro.scheduler import SchedulePlanCache

        app, system, spaces = asr
        arrivals = poisson_arrivals(
            120.0, 3_000.0, rng=np.random.default_rng(6)
        )
        legacy = run_simulation(
            system, app, spaces, arrivals, seed=6, engine="legacy"
        )
        event = run_simulation(
            system, app, spaces, arrivals, seed=6, engine="event",
            plan_cache=SchedulePlanCache(),
        )
        assert request_sig(legacy) == request_sig(event)
        assert legacy.power_bins_w.tolist() == event.power_bins_w.tolist()

    def test_pareto_and_flash_crowd_streams(self, wt):
        app, system, spaces = wt
        for spec in (
            ArrivalSpec.pareto(80.0, 3_000.0, seed=4),
            ArrivalSpec.flash_crowd(40.0, 3_000.0, 1_000.0, 500.0, seed=4),
        ):
            arrivals = spec.generate()
            legacy, event = ab(app, system, spaces, arrivals, seed=4)
            assert request_sig(legacy) == request_sig(event), spec.kind


class TestGoldenChaos:
    def test_chaos_identity(self, asr):
        """Chaos runs delegate arrivals to the node (the injector owns
        retries/failover), so identity is structural — but the whole
        result must still match the legacy loop exactly."""
        app, system, spaces = asr
        arrivals = poisson_arrivals(
            60.0, 4_000.0, rng=np.random.default_rng(8)
        )
        faults = FaultSchedule.single_crash(
            "fpga0", at_ms=1_000.0, recover_at_ms=2_500.0
        )
        legacy, event = ab(
            app, system, spaces, arrivals, seed=8, faults=faults
        )
        assert request_sig(legacy) == request_sig(event)
        assert legacy.power_bins_w.tolist() == event.power_bins_w.tolist()
        assert legacy.faults.summary() == event.faults.summary()
        assert legacy.availability == event.availability

    def test_traced_identity(self, asr):
        from repro.obs import SpanTracer

        app, system, spaces = asr
        arrivals = poisson_arrivals(
            40.0, 2_000.0, rng=np.random.default_rng(5)
        )
        tracers = []
        for engine in ("legacy", "event"):
            tracer = SpanTracer()
            run_simulation(
                system, app, spaces, arrivals, seed=5, engine=engine,
                tracer=tracer,
            )
            tracers.append(tracer)
        a, b = tracers
        assert len(a.events) == len(b.events)
        assert [e.to_dict() for e in a.events] == [
            e.to_dict() for e in b.events
        ]


class TestValidationMode:
    def test_validate_engine_matches_and_conserves(self, asr):
        """validate=True runs the interpreter with explicit
        KERNEL_COMPLETE events; every dispatched kernel must drain
        exactly one completion, and results must match codegen."""
        app, system, spaces = asr
        arrivals = poisson_arrivals(
            60.0, 2_000.0, rng=np.random.default_rng(4)
        )

        def build_node():
            return LeafNode(system, app, spaces, seed=4)

        fast = EventHeapEngine(build_node()).run(arrivals)
        checked_engine = EventHeapEngine(build_node(), validate=True)
        checked = checked_engine.run(arrivals)
        assert [(r.arrival_ms, r.completion_ms) for r in fast] == [
            (r.arrival_ms, r.completion_ms) for r in checked
        ]
        assert checked_engine.dispatched > 0
        assert checked_engine.completions_drained == checked_engine.dispatched

    def test_unknown_engine_rejected(self, wt):
        app, system, spaces = wt
        with pytest.raises(ValueError, match="unknown engine"):
            run_simulation(
                system, app, spaces, [1.0], engine="threaded"
            )


class TestClusterGolden:
    def _fleet_sig(self, result):
        return (
            [
                (r.arrival_ms, r.completion_ms, r.predicted_ms)
                for r in result.requests
            ],
            result.node_ids,
            [(iv.t_ms, iv.arrivals, iv.p99_ms) for iv in result.intervals],
            [
                (e.t_ms, e.action, e.node_id, e.fleet_size)
                for e in result.timeline
            ],
            result.power_bins_w.tolist(),
        )

    def test_fleet_replay_identity(self, asr):
        from repro.cluster import AutoscalerConfig, ClusterSimulation

        app, system, spaces = asr
        cfg = AutoscalerConfig(min_nodes=1, max_nodes=4)
        spec = ArrivalSpec.flash_crowd(
            80.0, 16_000.0, 6_000.0, 3_000.0, seed=0
        )

        def replay(engine):
            sim = ClusterSimulation(
                [system], app, spaces, config=cfg, seed=5, engine=engine
            )
            return sim.run(spec, horizon_ms=16_000.0)

        legacy = replay("legacy")
        event = replay("event")
        assert self._fleet_sig(legacy) == self._fleet_sig(event)

    def test_fleet_spec_equals_raw_list(self, asr):
        from repro.cluster import AutoscalerConfig, ClusterSimulation

        app, system, spaces = asr
        cfg = AutoscalerConfig(min_nodes=1, max_nodes=3)
        spec = ArrivalSpec.poisson(60.0, 8_000.0)

        def build():
            return ClusterSimulation(
                [system], app, spaces, config=cfg, seed=2
            )

        sim = build()
        raw = spec.generate(sim.arrival_rng())
        by_list = sim.run(raw, horizon_ms=8_000.0)
        by_spec = build().run(spec, horizon_ms=8_000.0)
        assert self._fleet_sig(by_list) == self._fleet_sig(by_spec)

    def test_unknown_cluster_engine_rejected(self, asr):
        from repro.cluster import AutoscalerConfig, ClusterSimulation

        app, system, spaces = asr
        with pytest.raises(ValueError, match="engine"):
            ClusterSimulation(
                [system], app, spaces,
                config=AutoscalerConfig(min_nodes=1, max_nodes=2),
                seed=0, engine="nope",
            )


class TestFleetDriverIdentity:
    """Event vs. legacy fleet drivers on the paths the golden replay
    above leaves out: serving-set growth inside an arrival chunk, and a
    fault-injected node the router must steer around."""

    _fleet_sig = TestClusterGolden._fleet_sig

    @pytest.mark.parametrize("warmup_ms", [1500.0, 1234.5])
    def test_promotions_inside_arrival_chunks(self, asr, warmup_ms):
        from repro.cluster import AutoscalerConfig, ClusterSimulation

        app, system, spaces = asr
        cfg = AutoscalerConfig(min_nodes=1, max_nodes=4, warmup_ms=warmup_ms)
        spec = ArrivalSpec.flash_crowd(
            80.0, 16_000.0, 6_000.0, 3_000.0, seed=0
        )

        def replay(engine):
            sim = ClusterSimulation(
                [system], app, spaces, config=cfg, seed=5, engine=engine
            )
            return sim.run(spec, horizon_ms=16_000.0)

        legacy = replay("legacy")
        event = replay("event")
        assert self._fleet_sig(legacy) == self._fleet_sig(event)
        # A warm-up off the 1000 ms evaluation grid promotes nodes
        # between evaluations: the serving set grows inside an arrival
        # chunk, and the new node takes requests before the next one.
        eval_ms = cfg.eval_interval_ms
        off_grid = {
            n.node_id: (n.ready_ms // eval_ms + 1) * eval_ms
            for n in event.nodes
            if n.ready_ms % eval_ms
        }
        assert off_grid
        early = [
            r.arrival_ms
            for node_id, r in zip(event.node_ids, event.requests)
            if node_id in off_grid and r.arrival_ms < off_grid[node_id]
        ]
        assert early

    def test_fault_injected_fleet(self, asr):
        from repro.cluster import AutoscalerConfig, ClusterSimulation

        app, system, spaces = asr
        node0_devices = [
            d.device_id for d in LeafNode(system, app, spaces, seed=0).devices
        ]
        schedule = FaultSchedule.from_mtbf(
            node0_devices, 16_000.0, mtbf_ms=1_500.0, mttr_ms=1_500.0
        )
        cfg = AutoscalerConfig(min_nodes=2, max_nodes=4)
        spec = ArrivalSpec.poisson(60.0, 16_000.0)

        def replay(engine):
            sim = ClusterSimulation(
                [system], app, spaces, config=cfg, seed=3, engine=engine,
                fault_schedules={"node0": schedule},
            )
            return sim.run(spec, horizon_ms=16_000.0)

        legacy = replay("legacy")
        event = replay("event")
        assert self._fleet_sig(legacy) == self._fleet_sig(event)
        assert [r.served for r in legacy.requests] == [
            r.served for r in event.requests
        ]
        for result in (legacy, event):
            node0 = result.nodes[0]
            assert node0.node_id == "node0"
            assert node0.schedulable_fraction < 1.0
