"""Tests for the six Table-II benchmark definitions."""

import pytest

from conftest import chain_graph
from repro.apps import APP_BUILDERS, build
from repro.apps.base import Application
from repro.hardware.specs import DeviceType
from repro.patterns import PatternKind
from repro.scheduler import KernelGraph


def _cyclic_graph():
    """A two-kernel chain with a back edge added past ``connect``."""
    graph = chain_graph(n=2)
    graph.graph.add_edge("K1", "K0", nbytes=0)
    return graph


class TestInventory:
    def test_six_benchmarks(self):
        """The builders come in Table II order and build the app they
        are keyed by."""
        assert list(APP_BUILDERS) == ["ASR", "FQT", "IR", "CS", "MF", "WT"]
        assert [builder().name for builder in APP_BUILDERS.values()] == list(
            APP_BUILDERS
        )

    def test_build_by_name_case_insensitive(self):
        assert build("asr").name == "ASR"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build("DNN")

    @pytest.mark.parametrize("name", list(APP_BUILDERS))
    def test_graphs_validate(self, name):
        app = build(name)
        app.graph.validate()
        assert len(app.kernels) >= 2

    @pytest.mark.parametrize("name", list(APP_BUILDERS))
    def test_design_targets_cover_all_kernels(self, name):
        app = build(name)
        for k in app.kernels:
            targets = app.design_targets[k.name]
            assert targets[DeviceType.GPU] > 0
            assert targets[DeviceType.FPGA] > 0

    @pytest.mark.parametrize("name", list(APP_BUILDERS))
    def test_qos_default_200ms(self, name):
        assert build(name).qos_ms == 200.0

    @pytest.mark.parametrize(
        "make_graph,match",
        [(lambda: KernelGraph("empty"), "empty"), (_cyclic_graph, "cycle")],
        ids=["empty", "cyclic"],
    )
    def test_invalid_graph_refused(self, make_graph, match):
        targets = {name: {DeviceType.GPU: 4} for name in ("K0", "K1")}
        with pytest.raises(ValueError, match=match):
            Application("BAD", "broken", make_graph(), targets)


class TestASR:
    def test_fig6_dag_shape(self):
        app = build("ASR")
        paths = sorted(app.graph.paths(), key=len)
        assert [len(p) for p in paths] == [2, 3]
        assert paths[0] == ["LSTM_acoustic", "FC_output"]
        assert paths[1] == ["FC_embed", "LSTM_language", "FC_output"]

    def test_lstm_patterns_match_table2(self):
        app = build("ASR")
        kinds = set(app.graph.kernel("LSTM_acoustic").pattern_kinds)
        assert {
            PatternKind.MAP,
            PatternKind.REDUCE,
            PatternKind.PIPELINE,
            PatternKind.TILING,
        } <= kinds

    def test_lstm_is_recurrent(self):
        app = build("ASR")
        wl = app.graph.kernel("LSTM_acoustic").workload_summary()
        assert wl.sequential_steps > 8

    def test_lstm_weights_resident_stationary(self):
        app = build("ASR")
        k = app.graph.kernel("LSTM_acoustic")
        assert k.resident_stationary_bytes > 0
        assert k.resident_streamed_bytes == 0

    def test_fc_weights_streamed(self):
        app = build("ASR")
        k = app.graph.kernel("FC_embed")
        assert k.resident_streamed_bytes > 0


class TestAffinities:
    """The per-app device affinities the evaluation relies on."""

    def test_fqt_prng_is_sequential(self):
        app = build("FQT")
        assert app.graph.kernel("PRNG").workload_summary().sequential_steps > 8

    def test_cs_uses_byte_arithmetic(self):
        app = build("CS")
        assert app.graph.kernel("RS_Encoder").workload_summary().op_kind == "uint8"

    def test_wt_arithmetic_coding_sequential(self):
        app = build("WT")
        wl = app.graph.kernel("Arithmetic_Coding").workload_summary()
        assert wl.sequential_steps > 64

    def test_mf_sgd_is_irregular(self):
        app = build("MF")
        wl = app.graph.kernel("SGD_Update").workload_summary()
        assert wl.access_regularity < 0.5

    def test_ir_conv_patterns(self):
        app = build("IR")
        kinds = set(app.graph.kernel("Convolution").pattern_kinds)
        assert {
            PatternKind.GATHER,
            PatternKind.STENCIL,
            PatternKind.TILING,
            PatternKind.SCATTER,
        } <= kinds

    def test_calibration_biases_present(self):
        # Every benchmark carries fitted per-kernel calibration constants.
        for name in APP_BUILDERS:
            app = build(name)
            assert any(k.platform_bias for k in app.kernels), app.name


class TestTable2Rows:
    def test_row_shape(self):
        """FQT's first Table II row: PRNG, a Map in a Pipeline, with 64
        GPU and 128 FPGA designs."""
        app = build("FQT")
        assert len(app.kernels) == 3
        prng = app.kernels[0]
        assert prng.name == "PRNG"
        assert {PatternKind.MAP, PatternKind.PIPELINE} <= set(prng.pattern_kinds)
        targets = app.design_targets[prng.name]
        assert (targets[DeviceType.GPU], targets[DeviceType.FPGA]) == (64, 128)
