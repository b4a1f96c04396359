"""Tests for the experiment harness and the cheap figure regenerators.

The expensive sweeps (fig07-10, 12-14) are exercised by the benchmark
suite; here we test the harness utilities and the figures that run in
milliseconds, plus the summary arithmetic on synthetic data.
"""

import pytest

from repro.experiments import fig08, fig10, fig11, harness
from repro.experiments.fig09 import normalized_gap
from repro.runtime import poisson_arrivals


class TestHarness:
    def test_render_table_alignment(self):
        out = harness.render_table(
            ("a", "long-header"), [("x", 1), ("longer", 22)], "title"
        )
        lines = out.splitlines()
        assert lines[0] == "title"
        assert "long-header" in lines[1]
        assert len(lines) == 5

    def test_geomean(self):
        assert harness.geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert harness.geomean([]) == 0.0
        assert harness.geomean([0.0, 2.0]) == 2.0  # zeros skipped

    def test_get_app_cached(self):
        assert harness.get_app("ASR") is harness.get_app("ASR")

    def test_systems_returns_all_three(self):
        archs = harness.systems("I")
        assert set(archs) == set(harness.SYSTEM_NAMES)

    def test_default_loads_cover_paper_range(self):
        assert harness.DEFAULT_LOADS[0] == pytest.approx(0.1)
        assert harness.DEFAULT_LOADS[-1] == pytest.approx(1.0)

    def test_run_at_seeds_its_arrivals(self):
        app = harness.get_app("WT")
        system = harness.systems("I")["Homo-GPU"]

        def stream(seed):
            result = harness.run_at(app, system, 20.0, 1_000.0, seed=seed)
            return [r.arrival_ms for r in result.requests]

        assert stream(1) != stream(2)
        assert stream(0) == poisson_arrivals(20.0, 1_000.0)


class TestFig08Summary:
    def test_improvement_summary(self):
        data = {
            "Homo-GPU": {"A": 0.5, "avg": 0.5, "geomean": 0.5},
            "Homo-FPGA": {"A": 0.6, "avg": 0.6, "geomean": 0.6},
            "Heter-Poly": {"A": 0.9, "avg": 0.9, "geomean": 0.9},
        }
        imp = fig08.improvement_summary(data)
        assert imp["vs_homo_gpu"] == pytest.approx(0.8)
        assert imp["vs_homo_fpga"] == pytest.approx(0.5)

    def test_render_includes_summary_columns(self):
        data = {
            name: {"ASR": v, "avg": v, "geomean": v}
            for name, v in (
                ("Homo-GPU", 0.5),
                ("Homo-FPGA", 0.6),
                ("Heter-Poly", 0.9),
            )
        }
        out = fig08.render(data)
        assert "geomean" in out and "+" in out


class TestFig09Gap:
    def test_ideal_curve_has_zero_gap(self):
        curve = [(0.0, 0.0), (0.5, 100.0), (1.0, 200.0)]
        assert normalized_gap(curve) == pytest.approx(0.0)

    def test_flat_curve_has_positive_gap(self):
        curve = [(0.0, 200.0), (0.5, 200.0), (1.0, 200.0)]
        assert normalized_gap(curve) > 0.3

    def test_gap_robust_to_saturation_dip(self):
        # Power dipping at full load must not produce a negative gap for
        # a curve far above proportionality.
        curve = [(0.1, 150.0), (0.4, 190.0), (1.0, 160.0)]
        assert normalized_gap(curve) > 0.0


class TestFig10Summary:
    def test_improvement_summary(self):
        data = {
            "Homo-GPU": {"A": 0.3, "avg": 0.3},
            "Homo-FPGA": {"A": 0.4, "avg": 0.4},
            "Heter-Poly": {"A": 0.7, "avg": 0.7},
        }
        imp = fig10.improvement_summary(data)
        assert imp["vs_homo_gpu"] == pytest.approx(0.4)
        assert imp["vs_homo_fpga"] == pytest.approx(0.3)


class TestFig11:
    def test_run_and_render(self):
        data = fig11.run()
        assert len(data["series"]) == 288
        assert 0.0 <= data["min"] <= data["mean"] <= data["max"] <= 1.0
        out = fig11.render(data)
        assert "utilization" in out
        assert out.count("\n") > 24  # the hourly profile rows

    def test_custom_horizon(self):
        data = fig11.run(hours=2.0, interval_s=600.0)
        assert len(data["series"]) == 12
