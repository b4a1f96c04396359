"""Unit tests for the parallel pattern graph and Kernel aggregates."""

import pickle

import networkx as nx
import pytest

from conftest import small_kernel
from repro import apps
from repro.hardware import (
    AMD_W9100,
    XILINX_7V3,
    FPGAModel,
    GPUModel,
    ImplConfig,
)
from repro.hardware.specs import DeviceType
from repro.patterns import Kernel, Map, Pipeline, PPG, Reduce, Tensor, Workload
from repro.patterns.ppg import PPGEdge


def _two_pattern_ppg():
    x = Tensor("x", (1024,))
    ppg = PPG("k")
    m = ppg.add_pattern(Map((x,), func="mul", ops_per_element=2.0))
    r = ppg.add_pattern(Reduce((x,), func="add"))
    ppg.connect(m, r)
    return ppg, m, r


class TestPPG:
    def test_topological_order(self):
        ppg, m, r = _two_pattern_ppg()
        assert ppg.patterns == [m, r]

    def test_edge_bytes_default_to_producer_output(self):
        ppg, m, r = _two_pattern_ppg()
        assert ppg.edge_between(m, r).bytes_moved == m.output.nbytes

    def test_explicit_edge_bytes(self):
        x = Tensor("x", (64,))
        ppg = PPG("k")
        a, b = ppg.add_pattern(Map((x,))), ppg.add_pattern(Map((x,)))
        edge = ppg.connect(a, b, bytes_moved=12345)
        assert edge.bytes_moved == 12345

    def test_cycle_rejected(self):
        ppg, m, r = _two_pattern_ppg()
        with pytest.raises(ValueError, match="cycle"):
            ppg.connect(r, m)

    def test_connect_unregistered_raises(self):
        ppg, m, _ = _two_pattern_ppg()
        stray = Map((Tensor("y", (4,)),))
        with pytest.raises(KeyError):
            ppg.connect(m, stray)

    def test_sources_and_sinks(self):
        ppg, m, r = _two_pattern_ppg()
        assert ppg.sources() == [m]
        assert ppg.sinks() == [r]

    def test_communication_bytes(self):
        ppg, m, r = _two_pattern_ppg()
        assert ppg.communication_bytes() == m.output.nbytes

    def test_adjacent_pairs(self):
        ppg, m, r = _two_pattern_ppg()
        assert ppg.adjacent_pairs() == [(m, r)]

    def test_empty_ppg_invalid(self):
        with pytest.raises(ValueError, match="empty"):
            PPG("e").validate()

    def test_negative_edge_bytes_rejected(self):
        ppg, m, r2 = _two_pattern_ppg()
        x = Tensor("y", (4,))
        b = ppg.add_pattern(Map((x,)))
        with pytest.raises(ValueError):
            ppg.connect(m, b, bytes_moved=-1)


def _cyclic_ppg():
    """Two Maps in a cycle: ``connect`` refuses the back edge, so it is
    added to the graph directly."""
    x = Tensor("x", (64,))
    ppg = PPG("cyc")
    m1 = ppg.add_pattern(Map((x,)))
    m2 = ppg.add_pattern(Map((x,)))
    ppg.connect(m1, m2)
    ppg.graph.add_edge(m2, m1, edge=PPGEdge(m2, m1, 0))
    return ppg


class TestKernel:
    @pytest.mark.parametrize(
        "make_ppg,match",
        [(lambda: PPG("empty"), "empty"), (_cyclic_ppg, "acyclic")],
        ids=["empty", "cyclic"],
    )
    def test_invalid_ppg_refused(self, make_ppg, match):
        with pytest.raises(ValueError, match=match):
            Kernel("k", make_ppg())

    def test_total_ops_sums_patterns(self):
        ppg, m, r = _two_pattern_ppg()
        k = Kernel("k", ppg)
        assert k.total_ops == m.workload.total_ops + r.workload.total_ops

    def test_io_excludes_intermediates(self):
        ppg, m, r = _two_pattern_ppg()
        k = Kernel("k", ppg)
        assert k.intermediate_bytes == m.output.nbytes
        assert k.io_bytes == sum(t.nbytes for t in m.inputs) + r.output.nbytes

    def test_pattern_kinds_deduplicated_in_order(self):
        x = Tensor("x", (16,))
        ppg = PPG("k")
        a = ppg.add_pattern(Map((x,)))
        b = ppg.add_pattern(Map((x,)))
        c = ppg.add_pattern(Reduce((x,)))
        ppg.connect(a, b)
        ppg.connect(b, c)
        k = Kernel("k", ppg)
        assert [kk.value for kk in k.pattern_kinds] == ["map", "reduce"]

    def test_cdfg_cache(self):
        ppg, m, _ = _two_pattern_ppg()
        k = Kernel("k", ppg)
        assert k.cdfg(m) is k.cdfg(m)

    def test_cdfg_foreign_pattern_rejected(self):
        ppg, _, _ = _two_pattern_ppg()
        k = Kernel("k", ppg)
        foreign = Map((Tensor("z", (4,)),))
        with pytest.raises(KeyError):
            k.cdfg(foreign)

    def test_resident_bytes_deduplicated(self):
        w = Tensor("w", (1024,), "int8", resident=True)
        x = Tensor("x", (64,))
        ppg = PPG("k")
        a = ppg.add_pattern(Map((x, w)))
        b = ppg.add_pattern(Map((x, w)))
        ppg.connect(a, b)
        k = Kernel("k", ppg)
        assert k.resident_bytes == 1024  # counted once

    def test_resident_split_stationary_vs_streamed(self):
        wst = Tensor("w1", (100,), resident=True, stationary=True)
        wls = Tensor("w2", (200,), resident=True, stationary=False)
        x = Tensor("x", (4,))
        ppg = PPG("k")
        ppg.add_pattern(Map((x, wst, wls)))
        k = Kernel("k", ppg)
        assert k.resident_stationary_bytes == 400
        assert k.resident_streamed_bytes == 800

    def test_workload_summary_propagates_steps(self):
        x = Tensor("x", (128,))
        ppg = PPG("k")
        m = ppg.add_pattern(Map((x,)))
        p = ppg.add_pattern(Pipeline((x,), stages=("a",), iterations=37))
        ppg.connect(m, p)
        k = Kernel("k", ppg)
        assert k.workload_summary().sequential_steps == 37

    def test_latency_bias_defaults_to_one(self):
        ppg, _, _ = _two_pattern_ppg()
        k = Kernel("k", ppg)
        assert k.latency_bias(DeviceType.GPU) == 1.0

    def test_latency_bias_lookup(self):
        ppg, _, _ = _two_pattern_ppg()
        k = Kernel("k", ppg, platform_bias={DeviceType.FPGA: 2.5})
        assert k.latency_bias(DeviceType.FPGA) == 2.5
        assert k.latency_bias(DeviceType.GPU) == 1.0


class TestModelSignature:
    """The digest keys the guided search's RNG: it must follow every
    model input and nothing else."""

    def test_rebuilt_kernel_same_signature(self):
        assert (
            small_kernel("K").model_signature()
            == small_kernel("K").model_signature()
        )

    def test_workload_change_changes_signature(self):
        assert (
            small_kernel("K", elements=1024).model_signature()
            != small_kernel("K", elements=2048).model_signature()
        )

    def test_name_change_changes_signature(self):
        assert (
            small_kernel("A").model_signature()
            != small_kernel("B").model_signature()
        )

    def test_bias_mutation_changes_signature(self):
        """An in-place calibration-bias edit changes the digest."""
        kernel = small_kernel("K")
        before = kernel.model_signature()
        kernel.platform_bias[DeviceType.GPU] = 2.0
        assert kernel.model_signature() != before

    def test_bias_rebinding_changes_signature(self):
        """Rebinding the bias table changes the digest; restoring the
        table restores it."""
        kernel = small_kernel("K")
        before = kernel.model_signature()
        kernel.platform_bias = {DeviceType.GPU: 2.0}
        assert kernel.model_signature() != before
        kernel.platform_bias = {}
        assert kernel.model_signature() == before


_AGGREGATE_PROPERTIES = (
    "patterns",
    "pattern_workloads",
    "pattern_kinds",
    "total_ops",
    "io_bytes",
    "intermediate_bytes",
    "max_data_parallelism",
    "resident_bytes",
    "resident_stationary_bytes",
    "resident_streamed_bytes",
)


def _reference_aggregates(kernel):
    """Reference derivation of the kernel aggregates straight from its
    PPG: a fresh topological sort and fresh per-pattern workloads."""
    ppg = kernel.ppg
    patterns = list(nx.topological_sort(ppg.graph))
    kinds = []
    for p in patterns:
        if p.kind not in kinds:
            kinds.append(p.kind)

    def resident(stationary):
        seen = {}
        for p in patterns:
            for t in p.inputs:
                if t.resident and t.stationary == stationary:
                    seen[t.name] = t.nbytes
        return sum(seen.values())

    srcs, snks = ppg.sources(), ppg.sinks()
    bytes_in = sum(sum(t.nbytes for t in p.inputs) for p in srcs)
    bytes_out = sum(p.output.nbytes for p in snks)
    total_ops = sum(p.workload.total_ops for p in patterns)
    elements = max(p.workload.elements for p in patterns)
    return {
        "patterns": patterns,
        "pattern_workloads": tuple(p.workload for p in patterns),
        "pattern_kinds": tuple(kinds),
        "total_ops": total_ops,
        "io_bytes": bytes_in + bytes_out,
        "intermediate_bytes": ppg.communication_bytes(),
        "max_data_parallelism": max(p.data_parallelism for p in patterns),
        "resident_bytes": resident(True) + resident(False),
        "resident_stationary_bytes": resident(True),
        "resident_streamed_bytes": resident(False),
        "workload_summary": Workload(
            elements=elements,
            ops_per_element=total_ops / elements,
            bytes_in=bytes_in,
            bytes_out=bytes_out,
            op_kind=patterns[0].workload.op_kind,
            access_regularity=min(p.workload.access_regularity for p in patterns),
            sequential_steps=max(p.workload.sequential_steps for p in patterns),
        ),
    }


def _stored_aggregates(kernel):
    stored = {name: getattr(kernel, name) for name in _AGGREGATE_PROPERTIES}
    stored["workload_summary"] = kernel.workload_summary()
    return stored


def _asr_lstm():
    """A recurrent kernel with a GPU bias: covers the bias-floor path."""
    return next(k for k in apps.build("ASR").kernels if k.name == "LSTM_acoustic")


class TestStoredAggregates:
    @pytest.mark.parametrize("name", sorted(apps.APP_BUILDERS))
    def test_stored_equal_reference_derivation(self, name):
        for kernel in apps.build(name).kernels:
            assert _stored_aggregates(kernel) == _reference_aggregates(kernel), (
                kernel.name
            )

    def test_patterns_is_a_fresh_list(self):
        ppg, m, r = _two_pattern_ppg()
        k = Kernel("k", ppg)
        order = k.patterns
        assert isinstance(order, list) and order == [m, r]
        order.append(m)
        assert k.patterns == [m, r]

    def test_add_pattern_on_wrapped_ppg_raises(self):
        ppg, _, _ = _two_pattern_ppg()
        Kernel("k", ppg)
        with pytest.raises(nx.NetworkXError, match="Frozen"):
            ppg.add_pattern(Map((Tensor("y", (4,)),)))
        assert len(ppg) == 2

    def test_connect_on_wrapped_ppg_raises(self):
        x = Tensor("x", (64,))
        ppg = PPG("k")
        a, b = ppg.add_pattern(Map((x,))), ppg.add_pattern(Map((x,)))
        Kernel("k", ppg)
        with pytest.raises(nx.NetworkXError, match="Frozen"):
            ppg.connect(a, b)
        assert ppg.graph.number_of_edges() == 0

    def test_model_calls_never_sort_the_ppg(self, monkeypatch):
        kernel = _asr_lstm()
        sorts = []
        real_sort = nx.topological_sort

        def counting_sort(graph):
            sorts.append(graph)
            return real_sort(graph)

        monkeypatch.setattr(nx, "topological_sort", counting_sort)
        assert kernel.ppg.patterns == kernel.patterns  # a PPG walk sorts...
        assert len(sorts) == 1
        sorts.clear()
        configs = [ImplConfig(), ImplConfig(work_group_size=256, unroll=4)]
        gpu, fpga = GPUModel(AMD_W9100), FPGAModel(XILINX_7V3)
        for batch in (1, 4):  # batch > 1 takes the GPU bias-floor path
            gpu.estimate_batch(kernel, configs, batch)
            fpga.estimate_batch(kernel, configs, batch)
        gpu.estimate_batch(kernel, configs, [1, 4])  # one size per row
        assert sorts == []  # ...and the models make none

    def test_pickled_kernel_keeps_aggregates(self):
        kernel = _asr_lstm()
        clone = pickle.loads(pickle.dumps(kernel))
        ours, theirs = _stored_aggregates(kernel), _stored_aggregates(clone)
        # Patterns compare by identity; a copy is matched by name.
        assert [p.name for p in theirs.pop("patterns")] == [
            p.name for p in ours.pop("patterns")
        ]
        assert theirs == ours
        assert all(p in clone.ppg.graph for p in clone.patterns)
        assert nx.is_frozen(clone.ppg.graph)
        assert clone.platform_bias == kernel.platform_bias
        assert clone.model_signature() == kernel.model_signature()
        config = ImplConfig(unroll=4)
        gpu = GPUModel(AMD_W9100)
        assert gpu.estimate_batch(clone, [config], 4) == gpu.estimate_batch(
            kernel, [config], 4
        )
