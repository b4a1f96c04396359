"""Unit tests for the runtime kernel scheduler (Section V)."""

import pytest

from conftest import chain_graph, small_kernel, synthetic_space
from repro.hardware import AMD_W9100, PCIeLink, XILINX_7V3
from repro.hardware.specs import DeviceType
from repro.scheduler import (
    DeviceSlot,
    EnergyOptimizer,
    KernelGraph,
    LatencyOptimizer,
    PolyScheduler,
    Schedule,
    StaticScheduler,
    latency_priorities,
    min_latency_ms,
    priority_order,
)

GPU, FPGA = AMD_W9100.name, XILINX_7V3.name


def _spaces(latencies):
    """Synthetic design spaces {kernel: {platform: [(lat, power)...]}}."""
    spaces = {}
    for kname, per_platform in latencies.items():
        for platform, points in per_platform.items():
            dt = DeviceType.GPU if platform == GPU else DeviceType.FPGA
            spaces[(kname, platform)] = synthetic_space(kname, platform, dt, points)
    return spaces


def _diamond_graph():
    """The ASR shape: K1=>K4, K2=>K3=>K4."""
    graph = KernelGraph("diamond")
    for i in range(1, 5):
        graph.add_kernel(small_kernel(f"K{i}", elements=256))
    graph.connect("K1", "K4", nbytes=1024)
    graph.connect("K2", "K3", nbytes=1024)
    graph.connect("K3", "K4", nbytes=1024)
    return graph


def _diamond_spaces():
    return _spaces(
        {
            "K1": {GPU: [(100, 150), (140, 90)], FPGA: [(110, 30), (160, 18)]},
            "K2": {GPU: [(50, 140), (80, 85)], FPGA: [(45, 28), (70, 16)]},
            "K3": {GPU: [(45, 130)], FPGA: [(40, 25), (60, 15)]},
            "K4": {GPU: [(70, 150), (95, 95)], FPGA: [(75, 30), (85, 14)]},
        }
    )


def _devices():
    return [
        DeviceSlot("gpu0", GPU, DeviceType.GPU),
        DeviceSlot("fpga0", FPGA, DeviceType.FPGA),
    ]


class TestKernelGraph:
    def test_duplicate_names_rejected(self):
        g = KernelGraph("g")
        g.add_kernel(small_kernel("K"))
        with pytest.raises(ValueError, match="duplicate"):
            g.add_kernel(small_kernel("K"))

    def test_cycle_rejected(self):
        g = chain_graph(2)
        with pytest.raises(ValueError, match="cycle"):
            g.connect("K1", "K0")

    def test_unknown_edge_endpoint(self):
        g = chain_graph(2)
        with pytest.raises(KeyError):
            g.connect("K0", "nope")

    def test_paths_of_diamond(self):
        g = _diamond_graph()
        paths = sorted(g.paths(), key=len)
        assert paths == [["K1", "K4"], ["K2", "K3", "K4"]]

    def test_default_edge_bytes_from_producer(self):
        g = KernelGraph("g")
        a = g.add_kernel(small_kernel("A", elements=512))
        g.add_kernel(small_kernel("B", elements=512))
        g.connect("A", "B")
        assert g.edge_bytes("A", "B") == sum(
            p.output.nbytes for p in a.ppg.sinks()
        )

    def test_topological_kernel_order(self):
        g = _diamond_graph()
        order = g.kernel_names
        assert order.index("K1") < order.index("K4")
        assert order.index("K2") < order.index("K3") < order.index("K4")

    def test_structural_signature_tracks_topology(self):
        a, b = chain_graph(n=3), chain_graph(n=3)
        assert a.structural_signature() == b.structural_signature()
        c = chain_graph(n=3)
        c.add_kernel(small_kernel("tail", elements=128))
        c.connect("K2", "tail")
        assert c.structural_signature() != a.structural_signature()


class TestPriorities:
    def test_min_latency_across_platforms(self):
        spaces = _diamond_spaces()
        assert min_latency_ms("K1", spaces, [GPU, FPGA]) == 100
        assert min_latency_ms("K3", spaces, [GPU, FPGA]) == 40

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            min_latency_ms("nope", _diamond_spaces(), [GPU])

    def test_w_l_accumulates_down_the_path(self):
        g = _diamond_graph()
        spaces = _diamond_spaces()
        w = latency_priorities(g, spaces, [GPU, FPGA], PCIeLink())
        # Eq. 2: sink first, predecessors strictly larger.
        assert w["K4"] < w["K3"] < w["K2"]
        assert w["K1"] > w["K4"]

    def test_priority_order_is_topological(self):
        g = _diamond_graph()
        order = priority_order(g, _diamond_spaces(), [GPU, FPGA], PCIeLink())
        assert order.index("K2") < order.index("K3") < order.index("K4")
        assert order.index("K1") < order.index("K4")


class TestLatencyOptimizer:
    def test_schedule_respects_precedence_and_exclusivity(self):
        g = _diamond_graph()
        sched = LatencyOptimizer(_diamond_spaces()).schedule(g, _devices())
        a = sched.assignments
        assert a["K4"].start_ms >= a["K1"].end_ms - 1e-9
        assert a["K4"].start_ms >= a["K3"].end_ms - 1e-9
        assert a["K3"].start_ms >= a["K2"].end_ms - 1e-9
        # No overlap on any single device.
        by_dev = {}
        for asg in sched:
            by_dev.setdefault(asg.device_id, []).append(asg)
        for asgs in by_dev.values():
            asgs.sort(key=lambda x: x.start_ms)
            for prev, nxt in zip(asgs, asgs[1:]):
                assert nxt.start_ms >= prev.end_ms - 1e-9

    def test_parallel_paths_use_both_devices(self):
        g = _diamond_graph()
        sched = LatencyOptimizer(_diamond_spaces()).schedule(g, _devices())
        assert len({a.device_id for a in sched}) == 2

    def test_uses_min_latency_points(self):
        g = _diamond_graph()
        sched = LatencyOptimizer(_diamond_spaces()).schedule(g, _devices())
        for asg in sched:
            # Step 1 always picks each platform's fastest implementation.
            assert asg.point.index == 0 or asg.point.latency_ms == min(
                p.latency_ms
                for p in _diamond_spaces()[(asg.kernel_name, asg.point.platform)]
            )

    def test_respects_device_backlog(self):
        g = chain_graph(1)
        spaces = _spaces({"K0": {GPU: [(10, 100)]}})
        busy = [DeviceSlot("gpu0", GPU, DeviceType.GPU, available_at_ms=500.0)]
        sched = LatencyOptimizer(spaces).schedule(g, busy)
        assert sched.assignments["K0"].start_ms >= 500.0

    def test_no_devices_rejected(self):
        with pytest.raises(ValueError):
            LatencyOptimizer({}).schedule(chain_graph(1), [])

    def test_retime_keeps_choices(self):
        g = _diamond_graph()
        spaces = _diamond_spaces()
        opt = LatencyOptimizer(spaces)
        sched = opt.schedule(g, _devices())
        choices = {a.kernel_name: (a.point, a.device_id) for a in sched}
        retimed = opt.retime(g, _devices(), choices)
        assert retimed.makespan_ms == pytest.approx(sched.makespan_ms)


class TestEnergyOptimizer:
    def test_swaps_reduce_energy_within_bound(self):
        g = _diamond_graph()
        spaces = _diamond_spaces()
        opt = LatencyOptimizer(spaces)
        step1 = opt.schedule(g, _devices())
        energy = EnergyOptimizer(spaces, opt)
        bound = step1.makespan_ms * 2.0
        final, steps = energy.optimize(g, _devices(), step1, bound)
        assert final.makespan_ms <= bound
        assert final.total_energy_mj <= step1.total_energy_mj
        if steps:
            for s in steps:
                assert s.energy_saved_mj > 0
                assert s.makespan_ms <= bound

    def test_tight_bound_blocks_swaps(self):
        g = _diamond_graph()
        spaces = _diamond_spaces()
        opt = LatencyOptimizer(spaces)
        step1 = opt.schedule(g, _devices())
        energy = EnergyOptimizer(spaces, opt)
        final, steps = energy.optimize(
            g, _devices(), step1, step1.makespan_ms * 1.0001
        )
        # Any accepted swap must still meet the (near-zero-slack) bound.
        assert final.makespan_ms <= step1.makespan_ms * 1.0001

    def test_invalid_bound_rejected(self):
        g = _diamond_graph()
        spaces = _diamond_spaces()
        opt = LatencyOptimizer(spaces)
        step1 = opt.schedule(g, _devices())
        with pytest.raises(ValueError):
            EnergyOptimizer(spaces, opt).optimize(g, _devices(), step1, 0.0)

    def test_terminates(self):
        g = _diamond_graph()
        spaces = _diamond_spaces()
        opt = LatencyOptimizer(spaces)
        step1 = opt.schedule(g, _devices())
        # A generous bound: must still terminate (energy monotone).
        final, steps = EnergyOptimizer(spaces, opt).optimize(
            g, _devices(), step1, 1e9
        )
        assert len(steps) <= EnergyOptimizer.MAX_ITERS


class TestSchedulers:
    def test_poly_combines_both_steps(self):
        g = _diamond_graph()
        sched, steps = PolyScheduler(_diamond_spaces(), 1000.0).schedule(
            g, _devices()
        )
        assert sched.makespan_ms <= 1000.0

    def test_static_scheduler_fixed_implementation(self):
        g = _diamond_graph()
        spaces = _diamond_spaces()
        static = StaticScheduler(spaces, 200.0)
        gpu_only = [DeviceSlot("gpu0", GPU, DeviceType.GPU)]
        s1, steps = static.schedule(g, gpu_only)
        s2, _ = static.schedule(g, gpu_only)
        # Same frozen choice across calls, and no energy swaps.
        assert steps == []
        for k in s1.assignments:
            assert s1[k].point.index == s2[k].point.index

    @pytest.mark.parametrize("scheduler", [PolyScheduler, StaticScheduler])
    @pytest.mark.parametrize("bound_ms", [0.0, -5.0])
    def test_non_positive_bound_rejected(self, scheduler, bound_ms):
        with pytest.raises(ValueError, match="latency bound must be positive"):
            scheduler(_diamond_spaces(), bound_ms)

    def test_schedule_record_helpers(self):
        g = _diamond_graph()
        sched = LatencyOptimizer(_diamond_spaces()).schedule(g, _devices())
        assert len(sched) == 4
        assert sched.makespan_ms >= max(a.latency_ms for a in sched)
        assert sched.total_energy_mj > 0
        assert "makespan" in sched.gantt()

    def test_schedule_rejects_duplicates(self):
        g = _diamond_graph()
        sched = LatencyOptimizer(_diamond_spaces()).schedule(g, _devices())
        a = next(iter(sched))
        with pytest.raises(ValueError, match="twice"):
            Schedule("x", [a, a])


class TestStaticSchedulerPolicyIsolation:
    def test_two_graphs_keep_their_frozen_policies(self):
        """Regression: interleaving a second application through one
        StaticScheduler must not clobber the first one's offline
        max-efficiency/min-latency decision."""
        spaces = _diamond_spaces()
        scheduler = StaticScheduler(spaces, 500.0)
        diamond = _diamond_graph()
        first, _ = scheduler.schedule(diamond, _devices())

        # A serial chain over the same kernels busts 60% of the bound at
        # zero load, freezing the *other* policy (min-latency).
        serial = KernelGraph("serial")
        for i in range(1, 5):
            serial.add_kernel(small_kernel(f"K{i}", elements=256))
        for a, b in (("K1", "K2"), ("K2", "K3"), ("K3", "K4")):
            serial.connect(a, b, nbytes=1024)
        scheduler.schedule(serial, _devices())
        assert (
            scheduler._fixed_choice["diamond"]
            != scheduler._fixed_choice["serial"]
        )

        replay, _ = scheduler.schedule(diamond, _devices())
        assert [
            (a.kernel_name, a.point.index, a.device_id) for a in first
        ] == [
            (a.kernel_name, a.point.index, a.device_id) for a in replay
        ]

    def test_policy_frozen_per_graph_name(self):
        spaces = _diamond_spaces()
        scheduler = StaticScheduler(spaces, 1_000.0)
        scheduler.schedule(_diamond_graph(), _devices())
        small = KernelGraph("tiny")
        small.add_kernel(small_kernel("K1", elements=256))
        scheduler.schedule(small, _devices())
        assert set(scheduler._fixed_choice) == {"diamond", "tiny"}
