"""Bench harness: schema stability, determinism, and the baseline gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.benchref import (
    SCHEMA_VERSION,
    calibrate,
    compare_to_baseline,
    default_output_path,
    load_bench_json,
    render_bench,
    run_bench,
    write_bench_json,
)
from repro.cli import main as cli_main

#: The stable BENCH layout; CI tooling and the trend record key off it.
TOP_KEYS = {
    "schema_version", "label", "setting", "system", "trials", "n_jobs",
    "suite", "calibration_s", "apps",
}
DSE_KEYS = {
    "trial_s", "median_s", "cold_s", "warm_median_s", "spaces", "points",
    "pareto_points", "pruned_invalid", "cache",
}
CACHE_KEYS = {"hits", "misses", "merges", "hit_rate"}
#: Additive fields (obs wiring) absent from pre-obs baseline documents;
#: the schema_version stayed 1 because consumers key off required keys.
ADDITIVE_KEYS = {"pruned_invalid", "merges"}
SCHED_KEYS = {"trial_s", "median_s", "swaps"}
SIM_KEYS = {"trial_s", "median_s", "requests", "p99_ms"}
RT_SIM_KEYS = {"trial_s", "median_s", "cold_s", "loads"}
RT_SIM_LOAD_KEYS = {
    "rps", "duration_ms", "requests", "event_cold_s", "event_warm_trial_s",
    "event_warm_median_s", "event_req_per_s", "p99_ms",
}
CLUSTER_KEYS = {
    "trial_s", "median_s", "cold_s", "requests", "peak_rps", "served_rps",
    "p99_ms", "qos_ok_frac", "mean_fleet", "launches", "terminations",
    "scale_up_lag_ms", "scale_down_lag_ms", "cost_efficiency",
}
OBS_KEYS = {"trial_s", "median_s", "cold_s", "overhead", "loads"}
OBS_LOAD_KEYS = {
    "rps", "duration_ms", "requests", "events", "event_cold_s",
    "event_trial_s", "event_median_s", "untraced_trial_s",
    "untraced_median_s", "overhead", "sampling",
}
OBS_SAMPLING_KEYS = {
    "head_rate", "kept_events", "total_events", "kept_requests",
    "dropped_spans",
}
DSE_SEARCH_KEYS = {
    "trial_s", "median_s", "cold_s", "exhaustive_trial_s",
    "exhaustive_median_s", "pair_speedups", "speedup", "explored",
    "exhaustive_evaluations", "guided_evaluations", "eval_ratio",
    "hypervolume_ratio", "hypervolume_ratio_mean", "front_identical",
    "max_evals", "seed",
}


@pytest.fixture(scope="module")
def mf_doc():
    """One real harness run on the cheapest app, shared by the module."""
    return run_bench(app_names=["MF"], trials=2, label="test")


class TestSchema:
    def test_top_level_keys(self, mf_doc):
        assert set(mf_doc) == TOP_KEYS
        assert mf_doc["schema_version"] == SCHEMA_VERSION
        assert mf_doc["calibration_s"] > 0

    def test_app_sections(self, mf_doc):
        row = mf_doc["apps"]["MF"]
        assert set(row) == {
            "dse", "scheduler", "simulation", "sim", "cluster", "obs",
            "dse_search",
        }
        assert set(row["dse"]) == DSE_KEYS
        assert set(row["dse"]["cache"]) == CACHE_KEYS
        assert set(row["scheduler"]) == SCHED_KEYS
        assert set(row["simulation"]) == SIM_KEYS
        assert set(row["sim"]) == RT_SIM_KEYS
        for load in row["sim"]["loads"].values():
            assert set(load) == RT_SIM_LOAD_KEYS
        assert set(row["cluster"]) == CLUSTER_KEYS
        assert set(row["obs"]) == OBS_KEYS
        for load in row["obs"]["loads"].values():
            assert set(load) == OBS_LOAD_KEYS
            assert set(load["sampling"]) == OBS_SAMPLING_KEYS
        assert set(row["dse_search"]) == DSE_SEARCH_KEYS

    def test_trial_counts_and_medians(self, mf_doc):
        row = mf_doc["apps"]["MF"]
        for section in ("dse", "scheduler", "simulation"):
            assert len(row[section]["trial_s"]) == 2
            assert row[section]["median_s"] > 0

    def test_warm_trials_hit_cache(self, mf_doc):
        dse = mf_doc["apps"]["MF"]["dse"]
        assert dse["cache"]["hit_rate"] > 0.4
        assert dse["warm_median_s"] < dse["cold_s"]

    def test_json_round_trip(self, mf_doc, tmp_path):
        path = write_bench_json(mf_doc, tmp_path / "BENCH_test.json")
        assert load_bench_json(path) == mf_doc

    def test_render_mentions_every_app(self, mf_doc):
        text = render_bench(mf_doc)
        assert "MF" in text and "cache" in text

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError, match="unknown app"):
            run_bench(app_names=["NOPE"], trials=1)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="suite"):
            run_bench(app_names=["MF"], trials=1, suite="sched")

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_bench(app_names=["MF"], trials=0)

    def test_default_output_path(self):
        assert default_output_path("ci").name == "BENCH_ci.json"


class TestLoadValidation:
    def test_rejects_wrong_schema_version(self, mf_doc, tmp_path):
        doc = copy.deepcopy(mf_doc)
        doc["schema_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema_version"):
            load_bench_json(path)

    def test_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ValueError, match="missing"):
            load_bench_json(path)

    def test_rejects_bad_calibration(self, mf_doc, tmp_path):
        doc = copy.deepcopy(mf_doc)
        doc["calibration_s"] = 0.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="calibration"):
            load_bench_json(path)


class TestGate:
    def test_identical_docs_pass(self, mf_doc):
        comparison = compare_to_baseline(mf_doc, mf_doc, max_ratio=2.0)
        assert comparison.ok
        assert all(r == pytest.approx(1.0) for r in comparison.ratios.values())

    def test_regression_detected(self, mf_doc):
        slow = copy.deepcopy(mf_doc)
        dse = slow["apps"]["MF"]["dse"]
        dse["median_s"] *= 3.0
        dse["cold_s"] *= 3.0
        comparison = compare_to_baseline(slow, mf_doc, max_ratio=2.0)
        assert not comparison.ok
        assert any("MF/dse" in r for r in comparison.regressions)
        assert "REGRESSION" in comparison.render()

    def test_calibration_normalizes_machine_speed(self, mf_doc):
        """A uniformly 3x-slower machine (3x calibration, 3x medians)
        must NOT trip the gate."""
        slow_machine = copy.deepcopy(mf_doc)
        slow_machine["calibration_s"] *= 3.0
        dse = slow_machine["apps"]["MF"]["dse"]
        dse["median_s"] *= 3.0
        dse["cold_s"] *= 3.0
        comparison = compare_to_baseline(slow_machine, mf_doc, max_ratio=2.0)
        assert comparison.ok

    def test_disjoint_apps_skipped_not_failed(self, mf_doc):
        other = copy.deepcopy(mf_doc)
        other["apps"] = {"ASR": other["apps"].pop("MF")}
        comparison = compare_to_baseline(other, mf_doc, max_ratio=2.0)
        assert comparison.ok
        assert set(comparison.skipped) == {"ASR", "MF"}

    def test_bad_max_ratio_rejected(self, mf_doc):
        with pytest.raises(ValueError, match="max_ratio"):
            compare_to_baseline(mf_doc, mf_doc, max_ratio=0.0)


BASELINE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline.json"


class TestCheckedInBaseline:
    def test_baseline_is_valid_bench_doc(self):
        doc = load_bench_json(BASELINE_PATH)
        assert doc["label"] == "baseline"
        for app, row in doc["apps"].items():
            assert DSE_KEYS - ADDITIVE_KEYS <= set(row["dse"]), app
            assert set(row["dse"]) <= DSE_KEYS, app

    def test_baseline_covers_ci_apps(self):
        """perf-smoke benches ASR and WT; both must be gateable."""
        doc = load_bench_json(BASELINE_PATH)
        assert {"ASR", "WT"} <= set(doc["apps"])

    def test_baseline_gates_sim_sections(self):
        """The event-engine sections carry the gated metrics, in the
        harness's current layout."""
        doc = load_bench_json(BASELINE_PATH)
        for app, row in doc["apps"].items():
            assert set(row["sim"]) == RT_SIM_KEYS, app
            for load in row["sim"]["loads"].values():
                assert set(load) == RT_SIM_LOAD_KEYS, app

    def test_baseline_gates_cluster_sections(self):
        """The fleet-replay sections must carry the gated metrics."""
        doc = load_bench_json(BASELINE_PATH)
        for app, row in doc["apps"].items():
            assert {"median_s", "cold_s"} <= set(row["cluster"]), app

    def test_baseline_gates_obs_sections(self):
        """The tracing-overhead sections carry the gated metrics, in the
        harness's current layout."""
        doc = load_bench_json(BASELINE_PATH)
        for app, row in doc["apps"].items():
            assert set(row["obs"]) == OBS_KEYS, app
            for load in row["obs"]["loads"].values():
                assert set(load) == OBS_LOAD_KEYS, app

    def test_baseline_gates_dse_search_sections(self):
        """The guided-search sections must carry the gated timing plus
        the recorded quality bar: exact front parity and >=0.99
        hypervolume ratio on every app."""
        doc = load_bench_json(BASELINE_PATH)
        for app, row in doc["apps"].items():
            sec = row["dse_search"]
            assert {"median_s", "cold_s", "speedup"} <= set(sec), app
            assert sec["front_identical"] is True, app
            assert sec["hypervolume_ratio"] >= 0.99, app
            assert sec["eval_ratio"] >= 5.0, app


class TestSimSuite:
    def test_sim_suite_runs_only_sim(self):
        doc = run_bench(app_names=["MF"], trials=1, label="e", suite="sim")
        assert doc["suite"] == "sim"
        row = doc["apps"]["MF"]
        assert set(row) == {"sim"}
        assert set(row["sim"]) == RT_SIM_KEYS

    def test_sim_section_trials(self, mf_doc):
        s = mf_doc["apps"]["MF"]["sim"]
        for load in s["loads"].values():
            assert len(load["event_warm_trial_s"]) == 2
            assert load["event_req_per_s"] > 0
        # trials=2 -> one cold event run plus two warm event trials.
        assert len(s["trial_s"]) == 3
        assert s["cold_s"] == s["trial_s"][0]

    def test_render_includes_sim_line(self, mf_doc):
        assert "event warm" in render_bench(mf_doc)

    def test_gate_covers_sim_section(self, mf_doc):
        slow = copy.deepcopy(mf_doc)
        sec = slow["apps"]["MF"]["sim"]
        sec["median_s"] *= 5.0
        sec["cold_s"] *= 5.0
        comparison = compare_to_baseline(slow, mf_doc, max_ratio=2.0)
        assert not comparison.ok
        assert any("MF/sim" in r for r in comparison.regressions)



class TestObsSuite:
    def test_obs_suite_runs_only_obs(self):
        doc = run_bench(app_names=["MF"], trials=1, label="o", suite="obs")
        assert doc["suite"] == "obs"
        row = doc["apps"]["MF"]
        assert set(row) == {"obs"}
        assert set(row["obs"]) == OBS_KEYS
        high = row["obs"]["loads"]["high"]
        assert high["overhead"] >= 1.0
        assert 0 < high["sampling"]["kept_events"] <= high["events"]


class TestDseSuite:
    def test_dse_suite_runs_only_dse_search(self):
        doc = run_bench(app_names=["MF"], trials=1, label="d", suite="dse")
        assert doc["suite"] == "dse"
        row = doc["apps"]["MF"]
        assert set(row) == {"dse_search"}
        sec = row["dse_search"]
        assert set(sec) == DSE_SEARCH_KEYS
        # The quality bar the CI job gates: exact parity on the real
        # space, >=0.99 hypervolume on the enlarged one, a real budget.
        assert sec["front_identical"] is True
        assert sec["hypervolume_ratio"] >= 0.99
        assert sec["guided_evaluations"] < sec["exhaustive_evaluations"]
        assert sec["eval_ratio"] >= 5.0
        assert len(sec["pair_speedups"]) == 1

    def test_dse_search_section_in_full_suite(self, mf_doc):
        sec = mf_doc["apps"]["MF"]["dse_search"]
        assert len(sec["pair_speedups"]) == 2
        assert sec["speedup"] > 0
        assert sec["max_evals"] > 0

    def test_render_includes_dse_search_line(self, mf_doc):
        assert "dse-srch" in render_bench(mf_doc)

    def test_gate_covers_dse_search_section(self, mf_doc):
        slow = copy.deepcopy(mf_doc)
        sec = slow["apps"]["MF"]["dse_search"]
        sec["median_s"] *= 5.0
        sec["cold_s"] *= 5.0
        comparison = compare_to_baseline(slow, mf_doc, max_ratio=2.0)
        assert not comparison.ok
        assert any("MF/dse_search" in r for r in comparison.regressions)

    def test_cli_min_dse_speedup_gate(self, tmp_path):
        out = tmp_path / "BENCH_d.json"
        args = [
            "bench", "--app", "mf", "--suite", "dse", "--trials", "1",
            "--label", "d", "--out", str(out),
        ]
        assert cli_main(args + ["--min-dse-speedup", "1e9"]) == 1
        assert cli_main(args + ["--min-dse-speedup", "0.0"]) == 0
        assert load_bench_json(out)["suite"] == "dse"

    def test_cli_min_hypervolume_ratio_gate(self, tmp_path):
        out = tmp_path / "BENCH_d.json"
        args = [
            "bench", "--app", "mf", "--suite", "dse", "--trials", "1",
            "--label", "d", "--out", str(out),
        ]
        # The ratio is capped at 1.0 by construction, so a >1 gate must
        # fail and the recorded 0.99 bar must pass (deterministic).
        assert cli_main(args + ["--min-hypervolume-ratio", "1.01"]) == 1
        assert cli_main(args + ["--min-hypervolume-ratio", "0.99"]) == 0


class TestClusterSuite:
    def test_cluster_suite_runs_only_cluster(self):
        doc = run_bench(app_names=["MF"], trials=1, label="c", suite="cluster")
        assert doc["suite"] == "cluster"
        row = doc["apps"]["MF"]
        assert set(row) == {"cluster"}
        assert set(row["cluster"]) == CLUSTER_KEYS

    def test_cluster_section_quality_metrics(self, mf_doc):
        c = mf_doc["apps"]["MF"]["cluster"]
        assert c["requests"] > 0
        assert c["served_rps"] > 0
        assert c["p99_ms"] > 0
        assert 0.0 <= c["qos_ok_frac"] <= 1.0
        assert c["mean_fleet"] >= 1.0
        # The mini diurnal profile peaks above one node's capacity, so
        # the replay must contain a scale-up episode with the 2000 ms
        # warm-up reflected in the measured lag.
        assert c["launches"] >= 1
        assert c["scale_up_lag_ms"] is not None
        assert c["scale_up_lag_ms"] >= 2000.0
        assert c["cost_efficiency"] > 0

    def test_render_includes_cluster_line(self, mf_doc):
        assert "cluster" in render_bench(mf_doc)

    def test_gate_covers_cluster_section(self, mf_doc):
        slow = copy.deepcopy(mf_doc)
        sec = slow["apps"]["MF"]["cluster"]
        sec["median_s"] *= 5.0
        sec["cold_s"] *= 5.0
        comparison = compare_to_baseline(slow, mf_doc, max_ratio=2.0)
        assert not comparison.ok
        assert any("MF/cluster" in r for r in comparison.regressions)


class TestCLI:
    def test_bench_command_writes_and_gates(self, tmp_path, mf_doc):
        baseline = tmp_path / "base.json"
        write_bench_json(mf_doc, baseline)
        out = tmp_path / "BENCH_cli.json"
        # Same trial count as the baseline doc: a 1-trial median is a
        # cold time and would not be comparable to a 2-trial median.
        rc = cli_main([
            "bench", "--app", "mf", "--trials", "2", "--label", "cli",
            "--out", str(out), "--check", str(baseline),
        ])
        assert rc == 0
        doc = load_bench_json(out)
        assert doc["label"] == "cli" and "MF" in doc["apps"]

    def test_bench_command_fails_on_regression(self, tmp_path, mf_doc):
        fast = copy.deepcopy(mf_doc)
        dse = fast["apps"]["MF"]["dse"]
        dse["median_s"] /= 100.0
        dse["cold_s"] /= 100.0
        baseline = tmp_path / "base.json"
        write_bench_json(fast, baseline)
        rc = cli_main([
            "bench", "--app", "mf", "--trials", "1", "--label", "cli",
            "--out", str(tmp_path / "BENCH_cli.json"), "--check", str(baseline),
        ])
        assert rc == 1

    def test_bench_command_unknown_app(self, tmp_path):
        rc = cli_main([
            "bench", "--app", "nope", "--trials", "1",
            "--out", str(tmp_path / "b.json"),
        ])
        assert rc == 2


def test_calibration_is_positive_and_stable():
    a, b = calibrate(), calibrate()
    assert a > 0 and b > 0
    # Same machine, same workload: within an order of magnitude.
    assert 0.1 < a / b < 10.0
