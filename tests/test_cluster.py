"""Fleet layer: dispatcher, autoscaler, cluster simulation, loadgen and
fleet TCO.

The expensive fixtures (one real DSE product, shared mini-diurnal fleet
replays) are module-scoped; policy- and router-level tests run against
hand-built stub nodes so they stay micro-fast.
"""

import numpy as np
import pytest

from repro import apps, runtime
from repro.apps.base import Application
from repro.cli import main
from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    ClusterDispatcher,
    ClusterNode,
    ClusterSimulation,
    LaunchRequest,
    NodeState,
    SchedulingRequest,
    TerminationReason,
)
from repro.obs.tracer import SpanTracer
from repro.runtime.loadgen import flash_crowd_arrivals, pareto_poisson_arrivals
from repro.runtime.tco import TCOModel
from repro.runtime.trace import UtilizationTrace

# ---------------------------------------------------------------------------
# shared real-app fixtures
# ---------------------------------------------------------------------------

#: One compressed diurnal swing: rise, peak above single-node capacity,
#: fall back to idle — forces a full scale-up + scale-down episode.
MINI_PROFILE = (0.15, 0.3, 0.6, 0.9, 0.95, 0.7, 0.4, 0.15, 0.1, 0.1)


@pytest.fixture(scope="module")
def fleet_env():
    app = apps.build("MF")
    system = runtime.setting("I", "Heter-Poly")
    spaces = app.explore(system.platforms)
    return app, system, spaces


def run_fleet(fleet_env, seed=7, tracer=None, metrics=None, config=None,
              peak_factor=2.5):
    app, system, spaces = fleet_env
    config = config or AutoscalerConfig(min_nodes=1, max_nodes=6)
    sim = ClusterSimulation(
        system, app, spaces, config=config, seed=seed, tracer=tracer,
        metrics=metrics,
    )
    trace = UtilizationTrace(MINI_PROFILE, interval_s=3.0, name="mini")
    peak = sim._template_capacity(system) * peak_factor
    return sim.replay(trace, peak_rps=peak)


@pytest.fixture(scope="module")
def fleet_result(fleet_env):
    tracer = SpanTracer()
    result = run_fleet(fleet_env, tracer=tracer)
    return result, tracer


# ---------------------------------------------------------------------------
# stub nodes for router/policy unit tests
# ---------------------------------------------------------------------------


class StubNode:
    """The routing state the dispatcher reads off a ``ClusterNode``: the
    kept latest device horizon, requests served and schedulable
    fraction.  Tests route at ``now_ms=0``, so the horizon is the
    queue depth."""

    def __init__(self, node_id, queue_ms=0.0, served=0, healthy=1.0):
        self.node_id = node_id
        self.horizon_ms = queue_ms
        self.served = served
        self.health = healthy

    queue_ms = ClusterNode.queue_ms


class TestAutoscalerConfig:
    def test_defaults_have_hysteresis(self):
        cfg = AutoscalerConfig()
        assert (
            cfg.scale_down_utilization
            < cfg.target_utilization
            < cfg.scale_up_utilization
        )

    def test_target_outside_band_not_ok(self):
        with pytest.raises(ValueError, match="target_utilization=0.95"):
            AutoscalerConfig(target_utilization=0.95)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_nodes": -1},
            {"warmup_ms": -1.0},
            {"idle_intervals": 0},
            {"max_launch_per_eval": 0},
            {"scale_up_utilization": 0.3, "scale_down_utilization": 0.8},
            {"min_nodes": 9, "max_nodes": 2},
            {"min_nodes": 0},
            {"eval_interval_ms": 0.0},
            {"target_utilization": 0.1},
            # A non-finite time passes a sign check: an infinite interval
            # never ends the drive loop, a NaN one routes nothing, and a
            # NaN warm-up never brings a launched node into service.
            {"eval_interval_ms": float("inf")},
            {"eval_interval_ms": float("nan")},
            {"warmup_ms": float("inf")},
            {"warmup_ms": float("nan")},
        ],
    )
    def test_fatal_shapes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalerConfig(**kwargs)

    def test_every_defect_named_at_once(self):
        with pytest.raises(ValueError) as exc:
            AutoscalerConfig(
                min_nodes=0,
                eval_interval_ms=0.0,
                scale_up_utilization=0.2,
                scale_down_utilization=0.9,
            )
        message = str(exc.value)
        assert "min_nodes=0" in message
        assert "eval_interval_ms=0" in message
        assert "band [0.9, 0.2]" in message


def make_request(demand, capacity, n_serving, n_warming=0, idle=(),
                 node_capacity=10.0, now_ms=1000.0):
    return SchedulingRequest(
        now_ms=now_ms,
        demand_rps=demand,
        capacity_rps=capacity,
        n_serving=n_serving,
        n_warming=n_warming,
        node_capacity_rps=node_capacity,
        idle_nodes=tuple(idle),
    )


class TestAutoscaler:
    def test_holds_inside_band(self):
        scaler = Autoscaler(AutoscalerConfig())
        reply = scaler.evaluate(make_request(6.0, 10.0, 1))
        assert reply.idle
        assert reply.utilization == pytest.approx(0.6)

    def test_scales_up_above_band(self):
        cfg = AutoscalerConfig(warmup_ms=1500.0)
        reply = Autoscaler(cfg).evaluate(make_request(19.0, 10.0, 1))
        assert len(reply.to_launch) >= 1
        for launch in reply.to_launch:
            assert launch.at_ms == 1000.0
            assert launch.ready_ms == 2500.0  # deterministic warm-up

    def test_launch_count_targets_operating_point(self):
        # demand 30 rps, 10 rps/node, target 0.6 -> want ceil(30/6) = 5.
        cfg = AutoscalerConfig(max_nodes=8, max_launch_per_eval=8)
        reply = Autoscaler(cfg).evaluate(make_request(30.0, 10.0, 1))
        assert len(reply.to_launch) == 4  # 5 desired - 1 live

    def test_launches_capped_per_eval(self):
        cfg = AutoscalerConfig(max_nodes=8, max_launch_per_eval=2)
        reply = Autoscaler(cfg).evaluate(make_request(100.0, 10.0, 1))
        assert len(reply.to_launch) == 2

    def test_never_exceeds_max_nodes(self):
        cfg = AutoscalerConfig(max_nodes=3)
        reply = Autoscaler(cfg).evaluate(make_request(100.0, 30.0, 3))
        assert reply.to_launch == ()

    def test_warming_capacity_counts_toward_utilization(self):
        # 1 serving + 1 warming at 10 rps each; demand 12 -> util 0.6,
        # inside the band: no double-launch while capacity is in flight.
        reply = Autoscaler(AutoscalerConfig()).evaluate(
            make_request(12.0, 20.0, 1, n_warming=1)
        )
        assert reply.idle

    def test_scales_down_idle_nodes(self):
        cfg = AutoscalerConfig(min_nodes=1)
        reply = Autoscaler(cfg).evaluate(
            make_request(2.0, 30.0, 3, idle=("node2", "node1"))
        )
        assert reply.to_launch == ()
        assert [t.node_id for t in reply.to_terminate] == ["node2", "node1"]
        assert all(
            t.reason is TerminationReason.IDLE_TERMINATE
            for t in reply.to_terminate
        )

    def test_never_drops_below_min_nodes(self):
        cfg = AutoscalerConfig(min_nodes=2)
        reply = Autoscaler(cfg).evaluate(
            make_request(0.5, 30.0, 3, idle=("node2", "node1", "node0"))
        )
        assert len(reply.to_terminate) <= 1

    def test_only_idle_nodes_terminated(self):
        reply = Autoscaler(AutoscalerConfig()).evaluate(
            make_request(2.0, 30.0, 3, idle=())
        )
        assert reply.to_terminate == ()

    def test_over_max_sheds_with_typed_reason(self):
        cfg = AutoscalerConfig(max_nodes=2)
        reply = Autoscaler(cfg).evaluate(
            make_request(5.0, 40.0, 4, idle=("node3", "node2"))
        )
        assert [t.reason for t in reply.to_terminate] == [
            TerminationReason.MAX_NODES,
            TerminationReason.MAX_NODES,
        ]

    def test_scale_down_keeps_the_last_serving_node(self):
        """One idle serving node and one warming node at 1 rps against
        200 rps: terminating the serving node would leave arrivals with
        nowhere to go before the warming node is ready."""
        reply = Autoscaler(AutoscalerConfig()).evaluate(
            make_request(1.0, 200.0, 1, n_warming=1, idle=("node0",))
        )
        assert reply.to_terminate == ()

    def test_max_nodes_shedding_keeps_the_last_serving_node(self):
        reply = Autoscaler(AutoscalerConfig()).evaluate(
            make_request(1.0, 200.0, 1, n_warming=8, idle=("node0",))
        )
        assert reply.to_terminate == ()

    def test_zero_capacity_with_demand_is_infinite_utilization(self):
        request = make_request(5.0, 0.0, 0)
        assert request.utilization == float("inf")

    def test_reason_enum_values_stable(self):
        # Serialized into scaling timelines and obs events; renumbering
        # would silently corrupt cross-version comparisons.
        assert TerminationReason.IDLE_TERMINATE.value == 1
        assert TerminationReason.MAX_NODES.value == 2


class TestDispatcher:
    def make(self, seed=0):
        return ClusterDispatcher(np.random.default_rng(seed))

    def test_single_node_fleet_routes_to_it(self):
        node = StubNode("node0")
        assert self.make().route(0.0, [node]) is node

    def test_prefers_less_loaded_candidate(self):
        # With two nodes, power-of-two-choices always samples both.
        nodes = [StubNode("node0", queue_ms=50.0), StubNode("node1", queue_ms=0.0)]
        dispatcher = self.make()
        for _ in range(20):
            assert dispatcher.route(0.0, nodes).node_id == "node1"

    def test_locality_breaks_queue_ties(self):
        nodes = [
            StubNode("node0", queue_ms=0.0),
            StubNode("node1", queue_ms=0.0, served=1),
        ]
        dispatcher = self.make()
        for _ in range(20):
            assert dispatcher.route(0.0, nodes).node_id == "node1"

    def test_queue_gap_beats_locality(self):
        # A 100 ms backlog on the warm node dwarfs the 5 ms cold penalty.
        nodes = [
            StubNode("node0", queue_ms=0.0),
            StubNode("node1", queue_ms=100.0, served=1),
        ]
        dispatcher = self.make()
        for _ in range(20):
            assert dispatcher.route(0.0, nodes).node_id == "node0"

    def test_unhealthy_node_avoided(self):
        nodes = [StubNode("node0", healthy=0.0), StubNode("node1")]
        dispatcher = self.make()
        for _ in range(20):
            assert dispatcher.route(0.0, nodes).node_id == "node1"

    def test_degraded_node_penalized_proportionally(self):
        score_full = self.make().score(StubNode("a"), 0.0)
        score_half = self.make().score(StubNode("a", healthy=0.5), 0.0)
        assert score_half == pytest.approx(score_full + 25.0)

    def test_two_rng_draws_per_request(self):
        # The d=2 sample draws integers(n) then integers(n - 1).  numpy
        # draws nothing for a one-value range, so a request consumes no
        # 32-bit draw with one node, one with two, and two with three or
        # more: scaling among >= 3 nodes cannot desync the stream.
        for n, draws in ((1, 0), (2, 1), (3, 2), (7, 2)):
            nodes = [StubNode(f"node{i}") for i in range(n)]
            rng = np.random.default_rng(3)
            dispatcher = ClusterDispatcher(rng)
            for _ in range(5):
                dispatcher.route(0.0, nodes)
            rng2 = np.random.default_rng(3)
            for _ in range(5):
                rng2.integers(n)
                if n > 1:
                    rng2.integers(n - 1)
            assert rng.bit_generator.state == rng2.bit_generator.state, n
            raw = np.random.default_rng(3)
            if draws:
                raw.integers(0, 1 << 32, size=5 * draws, dtype=np.uint32)
            assert rng.bit_generator.state == raw.bit_generator.state, n

    def test_route_emits_schema_valid_event(self):
        tracer = SpanTracer()
        dispatcher = ClusterDispatcher(np.random.default_rng(0), tracer=tracer)
        nodes = [StubNode("node0"), StubNode("node1", served=1)]
        dispatcher.route(4.5, nodes, req=9)
        [event] = tracer.events
        assert event.kind == "cluster.route"
        assert event.ts_ms == 4.5
        assert event.args["req"] == 9
        assert sorted(event.args["candidates"]) == ["node0", "node1"]

    def test_empty_fleet_rejected(self):
        with pytest.raises(RuntimeError, match="no serving nodes"):
            self.make().route(0.0, [])

    def test_dead_nodes_never_chosen_while_a_live_one_serves(self):
        # Both sampled nodes dead: the router falls back to the best
        # node of the whole serving set, drawing nothing extra.
        nodes = [
            StubNode("node0", healthy=0.0),
            StubNode("node1", healthy=0.0),
            StubNode("node2"),
        ]
        rng = np.random.default_rng(0)
        dispatcher = ClusterDispatcher(rng)
        chosen = [dispatcher.route(0.0, nodes).node_id for _ in range(300)]
        assert set(chosen) == {"node2"}
        reference = np.random.default_rng(0)
        for _ in range(300):
            reference.integers(3)
            reference.integers(2)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_fallback_node_listed_among_candidates(self):
        nodes = [
            StubNode("node0", healthy=0.0),
            StubNode("node1", healthy=0.0),
            StubNode("node2"),
        ]
        tracer = SpanTracer()
        dispatcher = ClusterDispatcher(np.random.default_rng(0), tracer=tracer)
        dead_pair = (0, 1)
        assert dispatcher.route(1.0, nodes, pair=dead_pair) is nodes[2]
        [event] = tracer.events
        assert event.args["candidates"] == ("node0", "node1", "node2")
        assert event.args["node"] == "node2"

    def test_all_dead_fleet_keeps_sampled_choice(self):
        # No finite alternative: the sampled pair decides, by node id.
        nodes = [StubNode(f"node{i}", healthy=0.0) for i in range(4)]
        dispatcher = self.make()
        assert dispatcher.route(0.0, nodes, pair=(3, 1)) is nodes[1]

    def test_route_uses_pre_drawn_pair(self):
        nodes = [StubNode(f"node{i}", queue_ms=float(i)) for i in range(5)]
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        dispatcher = ClusterDispatcher(rng)
        assert dispatcher.route(0.0, nodes, pair=(4, 2)) is nodes[2]
        assert dispatcher.route(0.0, nodes[:1], pair=(0, None)) is nodes[0]
        assert rng.bit_generator.state == state


def _sample_two_reference(rng, n):
    """The per-request d=2 sample that ``sample_pairs`` replaced."""
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1)) if n > 1 else None
    if j is not None and j >= i:
        j += 1
    return i, j


class TestSamplePairs:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_loop(self, seed):
        shape = np.random.default_rng(100 + seed)
        sizes = shape.integers(1, 10, size=400).tolist()
        # Runs at one and two serving nodes draw zero and one value.
        sizes[50:90] = [1] * 40
        sizes[200:260] = [2] * 60
        sizes[300:320] = [1, 2] * 10
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        pairs = ClusterDispatcher(rng).sample_pairs(sizes)
        expected = [_sample_two_reference(reference, n) for n in sizes]
        assert pairs == expected
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_empty_and_zero_sizes(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        dispatcher = ClusterDispatcher(rng)
        assert dispatcher.sample_pairs([]) == []
        with pytest.raises(RuntimeError, match="no serving nodes"):
            dispatcher.sample_pairs([3, 0, 2])
        assert rng.bit_generator.state == state


class TestClusterNode:
    @pytest.fixture
    def make_node(self, fleet_env):
        from repro.runtime.node import LeafNode

        app, system, spaces = fleet_env

        def make():
            leaf = LeafNode(system, app, spaces, seed=0)
            return ClusterNode("node0", system, leaf, 0.0, 0.0)

        return make

    def test_queue_ms_equals_largest_device_backlog(self, make_node):
        node = make_node()
        devices = node.leaf.devices
        assert len(devices) > 1
        rng = np.random.default_rng(0)
        cases = []
        for _ in range(500):
            now = float(rng.uniform(0.0, 100.0))
            signs = rng.choice([-1.0, 0.0, 1.0], size=len(devices)).tolist()
            cases.append(
                (now, [now + s * float(rng.exponential(20.0)) for s in signs])
            )
        # Horizons one ulp either side of now, and equal to it.
        for now in (0.0, 1e-300, 0.1, 1234.5678, 1e12):
            above, below = np.nextafter(now, np.inf), np.nextafter(now, -np.inf)
            rest = [now] * (len(devices) - 1)
            cases += [
                (now, [float(above)] + rest),
                (now, [float(below)] * len(devices)),
                (now, [now] * len(devices)),
            ]
        for now, horizons in cases:
            for device, h in zip(devices, horizons):
                device.horizon_ms = h
            node.refresh()
            expected = max((d.backlog_ms(now) for d in devices), default=0.0)
            assert repr(node.queue_ms(now)) == repr(expected)

    def test_schedulable_fraction_counts_only_fault_injected_leaves(
        self, make_node
    ):
        from repro.faults import FaultInjector, FaultSchedule

        plain = make_node()
        assert plain.schedulable_fraction == 1.0
        injected = make_node()
        devices = injected.leaf.devices
        FaultInjector(FaultSchedule()).bind(injected.leaf)
        assert injected.schedulable_fraction == 1.0
        devices[0].mark_failed(0.0)
        devices[0].failure_detected = True
        assert injected.schedulable_fraction == (len(devices) - 1) / len(devices)


# ---------------------------------------------------------------------------
# loadgen satellites
# ---------------------------------------------------------------------------


class TestParetoPoisson:
    def test_deterministic_under_seed(self):
        a = pareto_poisson_arrivals(50.0, 5_000.0, np.random.default_rng(1))
        b = pareto_poisson_arrivals(50.0, 5_000.0, np.random.default_rng(1))
        assert a == b

    def test_seed_sensitive(self):
        a = pareto_poisson_arrivals(50.0, 5_000.0, np.random.default_rng(1))
        b = pareto_poisson_arrivals(50.0, 5_000.0, np.random.default_rng(2))
        assert a != b

    def test_sorted_and_in_range(self):
        times = pareto_poisson_arrivals(
            80.0, 4_000.0, np.random.default_rng(5), start_ms=100.0
        )
        assert times == sorted(times)
        assert all(100.0 <= t < 4_100.0 for t in times)

    def test_mean_rate_approximately_preserved(self):
        times = pareto_poisson_arrivals(
            100.0, 60_000.0, np.random.default_rng(0)
        )
        assert len(times) == pytest.approx(6_000, rel=0.25)

    def test_burstier_than_poisson(self):
        # Per-window counts must have a higher coefficient of variation
        # than the matched-rate Poisson stream (the point of the model).
        rng = np.random.default_rng(11)
        heavy = pareto_poisson_arrivals(100.0, 60_000.0, rng, alpha=1.5)
        poisson = runtime.poisson_arrivals(
            100.0, 60_000.0, np.random.default_rng(11)
        )

        def cv(times):
            counts = np.bincount(
                (np.asarray(times) // 1000.0).astype(int), minlength=60
            )
            return counts.std() / counts.mean()

        assert cv(heavy) > cv(poisson)

    def test_zero_rate_is_empty(self):
        assert pareto_poisson_arrivals(0.0, 1_000.0) == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_ms": 0.0},
            {"window_ms": 0.0},
            {"alpha": 1.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        base = {"rps": 10.0, "duration_ms": 1_000.0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            pareto_poisson_arrivals(**base)


class TestFlashCrowd:
    def test_deterministic_under_seed(self):
        a = flash_crowd_arrivals(
            20.0, 10_000.0, 4_000.0, 2_000.0, rng=np.random.default_rng(3)
        )
        b = flash_crowd_arrivals(
            20.0, 10_000.0, 4_000.0, 2_000.0, rng=np.random.default_rng(3)
        )
        assert a == b

    def test_sorted(self):
        times = flash_crowd_arrivals(
            20.0, 10_000.0, 4_000.0, 2_000.0, rng=np.random.default_rng(3)
        )
        assert times == sorted(times)

    def test_surge_window_concentrates_arrivals(self):
        times = flash_crowd_arrivals(
            20.0,
            10_000.0,
            4_000.0,
            2_000.0,
            surge_multiplier=8.0,
            rng=np.random.default_rng(0),
        )
        in_surge = sum(1 for t in times if 4_000.0 <= t < 6_000.0)
        before = sum(1 for t in times if 2_000.0 <= t < 4_000.0)
        assert in_surge > 3 * before

    def test_baseline_stream_unchanged_by_surge(self):
        base = runtime.poisson_arrivals(
            20.0, 10_000.0, np.random.default_rng(9)
        )
        with_surge = flash_crowd_arrivals(
            20.0, 10_000.0, 4_000.0, 1_000.0, rng=np.random.default_rng(9)
        )
        assert set(base) <= set(with_surge)

    def test_unit_multiplier_is_pure_baseline(self):
        times = flash_crowd_arrivals(
            20.0,
            10_000.0,
            4_000.0,
            1_000.0,
            surge_multiplier=1.0,
            rng=np.random.default_rng(4),
        )
        base = runtime.poisson_arrivals(
            20.0, 10_000.0, np.random.default_rng(4)
        )
        assert times == base

    def test_shrinking_multiplier_rejected(self):
        with pytest.raises(ValueError):
            flash_crowd_arrivals(20.0, 1_000.0, 0.0, 500.0, surge_multiplier=0.5)


# ---------------------------------------------------------------------------
# fleet TCO satellite
# ---------------------------------------------------------------------------


class TestFleetTCO:
    def setup_method(self):
        self.system = runtime.setting("I", "Heter-Poly")
        self.model = TCOModel()

    def test_single_node_path_pinned(self):
        """Regression pin: the fleet extension must not move the
        single-node numbers (literal values recorded pre-extension)."""
        assert self.model.monthly_capex_usd(self.system) == 652.75
        assert self.model.monthly_infrastructure_usd(self.system) == 37.8125
        assert self.model.monthly_energy_usd(250.0) == 13.450250000000002
        assert self.model.monthly_tco_usd(self.system, 250.0) == 801.92525
        assert self.model.cost_efficiency(self.system, 100.0, 250.0) == (
            0.12469990189235218
        )

    def test_one_node_fleet_matches_single_node(self):
        fleet = self.model.for_fleet(self.system, 1.0)
        energy = self.model.monthly_energy_usd(250.0)
        assert fleet.monthly_tco_usd(energy) == pytest.approx(
            self.model.monthly_tco_usd(self.system, 250.0)
        )

    def test_fixed_costs_scale_linearly(self):
        one = self.model.for_fleet(self.system, 1.0)
        five = self.model.for_fleet(self.system, 5.0)
        assert five.monthly_fixed_usd() == pytest.approx(
            5.0 * one.monthly_fixed_usd()
        )

    def test_fractional_node_months(self):
        half = self.model.for_fleet(self.system, 0.5)
        one = self.model.for_fleet(self.system, 1.0)
        assert half.monthly_capex_usd == pytest.approx(
            one.monthly_capex_usd / 2.0
        )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            self.model.for_fleet(self.system, -1.0)
        with pytest.raises(ValueError):
            self.model.for_fleet(self.system, 1.0).monthly_tco_usd(-5.0)

    def test_maintenance_component_exposed(self):
        # monthly_tco_usd = capex + infra + energy + maintenance exactly.
        total = self.model.monthly_tco_usd(self.system, 250.0)
        parts = (
            self.model.monthly_capex_usd(self.system)
            + self.model.monthly_infrastructure_usd(self.system)
            + self.model.monthly_energy_usd(250.0)
            + self.model.monthly_maintenance_usd(self.system)
        )
        assert total == parts


# ---------------------------------------------------------------------------
# end-to-end fleet simulation
# ---------------------------------------------------------------------------


class TestClusterSimulation:
    def test_deterministic_under_seed(self, fleet_env, fleet_result):
        result, tracer = fleet_result
        tracer2 = SpanTracer()
        result2 = run_fleet(fleet_env, tracer=tracer2)
        assert [r.latency_ms for r in result.requests] == [
            r.latency_ms for r in result2.requests
        ]
        assert result.node_ids == result2.node_ids
        assert result.timeline == result2.timeline
        assert [e.to_dict() for e in tracer.events] == [
            e.to_dict() for e in tracer2.events
        ]
        assert result.p99_ms == result2.p99_ms

    def test_seed_changes_outcome(self, fleet_env, fleet_result):
        result, _ = fleet_result
        other = run_fleet(fleet_env, seed=8)
        assert [r.latency_ms for r in result.requests] != [
            r.latency_ms for r in other.requests
        ]

    def test_autoscaler_tracks_diurnal_load(self, fleet_result):
        result, _ = fleet_result
        sizes = [e.fleet_size for e in result.timeline]
        assert max(sizes) >= 2  # scaled up at the peak
        assert result.timeline[-1].fleet_size < max(sizes)  # and back down
        assert result.launches >= 2
        assert result.terminations >= 1

    def test_qos_met_at_calibrated_load(self, fleet_result):
        result, _ = fleet_result
        assert result.qos_ok_frac() >= 0.9

    def test_fleet_bounds_respected(self, fleet_result):
        result, _ = fleet_result
        sizes = [e.fleet_size for e in result.timeline]
        assert all(1 <= s <= 6 for s in sizes)

    def test_warmup_delays_serving(self, fleet_result):
        result, _ = fleet_result
        by_id = {n.node_id: n for n in result.nodes}
        for node_id, record in zip(result.node_ids, result.requests):
            node = by_id[node_id]
            assert record.arrival_ms >= node.ready_ms

    def test_scale_up_lag_includes_warmup(self, fleet_result):
        result, _ = fleet_result
        assert result.scale_up_lags_ms
        assert all(lag >= 2000.0 for lag in result.scale_up_lags_ms)

    def test_all_arrivals_routed(self, fleet_result):
        result, tracer = fleet_result
        assert len(result.requests) == len(result.node_ids)
        assert len(tracer.by_kind("cluster.route")) == len(result.requests)

    def test_obs_stream_covers_scaling_decisions(self, fleet_result):
        result, tracer = fleet_result
        assert len(tracer.by_kind("cluster.launch")) == result.launches
        assert len(tracer.by_kind("cluster.terminate")) == result.terminations
        assert len(tracer.by_kind("cluster.scale")) == len(result.intervals)

    def test_interval_stats_aggregate(self, fleet_result):
        result, _ = fleet_result
        assert sum(iv.arrivals for iv in result.intervals) == len(
            result.requests
        )
        busy = [iv for iv in result.intervals if iv.arrivals > 0]
        assert all(iv.p99_ms >= iv.p50_ms for iv in busy)

    def test_power_and_cost_positive(self, fleet_result):
        result, _ = fleet_result
        assert result.fleet_avg_power_w > 0
        assert result.monthly_tco_usd() > 0
        assert result.cost_efficiency() > 0
        assert result.mean_fleet_size >= 1.0

    def test_metrics_registry_populated(self, fleet_env):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        result = run_fleet(fleet_env, metrics=registry)
        assert registry.value(
            "cluster_requests_total", outcome="served"
        ) == sum(1 for r in result.requests if r.served)
        assert registry.value("cluster_launches_total") == result.launches

    def test_no_served_request_leaves_intervals_empty(self, fleet_env):
        # Every device of the only node crashes at 0 ms: every request
        # fails, and no interval has a latency to summarize.
        from repro.faults.events import FaultEvent, FaultKind, FaultSchedule
        from repro.runtime.node import LeafNode

        app, system, spaces = fleet_env
        devices = LeafNode(system, app, spaces).devices
        schedule = FaultSchedule(
            FaultEvent(0.0, FaultKind.DEVICE_CRASH, d.device_id)
            for d in devices
        )
        sim = ClusterSimulation(
            system, app, spaces,
            config=AutoscalerConfig(min_nodes=1, max_nodes=1),
            fault_schedules={"node0": schedule},
        )
        result = sim.run([10.0, 100.0, 1_500.0])
        assert not any(r.served for r in result.requests)
        assert [iv.arrivals for iv in result.intervals] == [2, 1]
        assert all(np.isnan(iv.p99_ms) for iv in result.intervals)

    def test_single_instance_runs_once(self, fleet_env):
        app, system, spaces = fleet_env
        sim = ClusterSimulation(system, app, spaces)
        sim.run([10.0, 20.0, 30.0])
        with pytest.raises(RuntimeError, match="one run"):
            sim.run([10.0])

    def test_empty_arrivals_rejected(self, fleet_env):
        app, system, spaces = fleet_env
        with pytest.raises(ValueError, match="empty"):
            ClusterSimulation(system, app, spaces).run([])

    @pytest.mark.parametrize("horizon_ms", [float("inf"), float("nan")])
    def test_non_finite_horizon_rejected(self, fleet_env, horizon_ms):
        app, system, spaces = fleet_env
        with pytest.raises(ValueError, match="horizon_ms"):
            ClusterSimulation(system, app, spaces).run([10.0], horizon_ms)

    def test_fatal_configs_rejected(self, fleet_env):
        app, system, spaces = fleet_env
        with pytest.raises(ValueError, match="eval_interval"):
            ClusterSimulation(
                system, app, spaces,
                config=AutoscalerConfig(eval_interval_ms=0.0),
            )
        with pytest.raises(ValueError, match="min_nodes"):
            ClusterSimulation(
                system, app, spaces,
                config=AutoscalerConfig(min_nodes=5, max_nodes=2),
            )
        with pytest.raises(ValueError, match="min_nodes"):
            ClusterSimulation(
                system, app, spaces, config=AutoscalerConfig(min_nodes=0)
            )

    def test_bad_compress_rejected(self, fleet_env):
        app, system, spaces = fleet_env
        trace = UtilizationTrace((0.5,), interval_s=1.0)
        with pytest.raises(ValueError, match="compress"):
            ClusterSimulation(system, app, spaces).replay(
                trace, peak_rps=10.0, compress=0.0
            )

    def test_heterogeneous_rotation(self, fleet_env):
        app, _, _ = fleet_env
        t1 = runtime.setting("I", "Heter-Poly")
        t2 = runtime.setting("I", "Homo-GPU")
        platforms = tuple(dict.fromkeys(t1.platforms + t2.platforms))
        spaces = app.explore(platforms)
        sim = ClusterSimulation(
            [t1, t2], app, spaces,
            config=AutoscalerConfig(min_nodes=2, max_nodes=4),
        )
        result = sim.run(
            runtime.poisson_arrivals(
                20.0, 4_000.0, np.random.default_rng(0)
            )
        )
        codenames = {n.template.codename for n in result.nodes}
        assert len(codenames) == 2  # launches rotate through templates

    def test_terminated_nodes_stop_serving(self, fleet_result):
        result, _ = fleet_result
        ends = {}
        for node in result.nodes:
            if node.state is NodeState.TERMINATED:
                ends[node.node_id] = node.terminated_ms
        assert ends  # the mini profile terminates at least one node
        for node_id, record in zip(result.node_ids, result.requests):
            if node_id in ends:
                assert record.arrival_ms <= ends[node_id]

    def test_launch_request_reason_recorded(self, fleet_result):
        result, _ = fleet_result
        reasons = {e.reason for e in result.timeline if e.action == "launch"}
        assert "initial" in reasons
        assert "scale_up" in reasons
        term_reasons = {
            e.reason for e in result.timeline if e.action == "terminate"
        }
        assert term_reasons <= {r.name for r in TerminationReason}


class TestDiurnalAcceptance:
    """The headline acceptance run: ASR on the synthesized Google-style
    diurnal trace must meet its QoS target in >= 90% of intervals while
    the fleet visibly tracks the load curve."""

    @pytest.fixture(scope="class")
    def asr_result(self):
        from repro.runtime.trace import synthesize_google_trace

        app = apps.build("ASR")
        system = runtime.setting("I", "Heter-Poly")
        spaces = app.explore(system.platforms)
        sim = ClusterSimulation(
            system, app, spaces,
            config=AutoscalerConfig(min_nodes=1, max_nodes=8),
        )
        trace = synthesize_google_trace(hours=6.0, interval_s=300.0)
        peak = sim._template_capacity(system) * 2.5
        return sim.replay(trace, peak_rps=peak, compress=200.0)

    def test_qos_target_met_in_90pct_of_intervals(self, asr_result):
        assert asr_result.qos_ok_frac() >= 0.9

    def test_fleet_tracks_diurnal_curve(self, asr_result):
        sizes = [e.fleet_size for e in asr_result.timeline]
        assert max(sizes) >= 3  # peak demand exceeds two nodes
        assert asr_result.timeline[-1].fleet_size <= 2  # trough again
        assert asr_result.launches >= 3
        assert asr_result.terminations >= 2

    def test_all_requests_served(self, asr_result):
        assert all(r.served for r in asr_result.requests)


class TestLaunchRequestTypes:
    def test_launch_request_fields(self):
        launch = LaunchRequest(at_ms=10.0, ready_ms=15.0)
        assert launch.reason == "scale_up"
        assert launch.ready_ms > launch.at_ms


class TestClusterCLI:
    """``repro cluster`` refuses autoscaler flags the fleet cannot
    converge under, before any DSE runs."""

    def _refused(self, capsys, monkeypatch, *flags):
        def explore(*args, **kwargs):
            raise AssertionError("the DSE ran before the refusal")

        monkeypatch.setattr(Application, "explore", explore)
        assert main(["cluster", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        return captured.err

    def test_unsatisfiable_bounds_and_interval_both_named(
        self, capsys, monkeypatch
    ):
        err = self._refused(
            capsys, monkeypatch,
            "--min-nodes", "5", "--max-nodes", "2", "--eval-ms", "0",
        )
        assert "min_nodes=5 exceeds max_nodes=2" in err
        assert "eval_interval_ms=0 must be positive" in err

    @pytest.mark.parametrize(
        "flag, value", [("--eval-ms", "nan"), ("--eval-ms", "inf"),
                        ("--warmup-ms", "nan"), ("--warmup-ms", "inf")],
    )
    def test_non_finite_time_named(self, capsys, monkeypatch, flag, value):
        err = self._refused(capsys, monkeypatch, flag, value)
        assert "finite" in err

    def test_inverted_band_named(self, capsys, monkeypatch):
        err = self._refused(
            capsys, monkeypatch, "--down-util", "0.9", "--up-util", "0.5"
        )
        assert "hysteresis band [0.9, 0.5]" in err
