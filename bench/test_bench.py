"""Tests of the benchmark itself.

Run with ``python -m pytest bench -q`` from the root of a checkout.
"""

import json
import threading
import time

import pytest

from bench import ROOT, WORKLOAD_NAMES, layers, use_checkout_src
from bench.__main__ import END_TO_END, result_line
from bench.calibration import Calibrator

use_checkout_src()

from bench import worker, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads(worker.EXPECTED_PATH.read_text())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_op_matches_expected(name):
    wl = workloads.WORKLOADS[name](EXPECTED[name])
    wl.setup()
    try:
        index = 1
        op = wl.make_input(workloads.DEFAULT_SEED, index)
        summary = worker._verify(wl, workloads.DEFAULT_SEED, index, op, wl.run(op))
    finally:
        wl.close()
    assert summary["work"] > 0
    assert wl.matches(summary, EXPECTED[name]["ops"][index])


def test_inputs_depend_only_on_seed_and_index():
    wl = workloads.FleetDiurnal()
    wl.apps = [workloads.apps.build(n) for n in workloads.APP_NAMES]
    wl.peak_rps = {app.name: 100.0 for app in wl.apps}
    a, b, c = (wl.make_input(s, 4) for s in (7, 7, 8))
    assert a.arrivals == b.arrivals and a.sim_seed == b.sim_seed
    assert a.arrivals != c.arrivals


def test_metric_names_and_units_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
        (name, unit) for name, unit, _ in END_TO_END
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == layers.per_layer_metrics()

    untraced = {
        "attempted": 3, "failed": 0, "reference_ok": True, "run_error": None,
        "metrics": {name: 1.0 for name, _, _ in END_TO_END},
    }
    traced = dict(
        untraced,
        self_time_ok=True,
        metrics={name: 0.0 for name, _, _ in layers.per_layer_metrics()},
    )
    for run, trace, section in ((untraced, False, "end_to_end"), (traced, True, "per_layer")):
        line = result_line(run, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[section]
        }


def test_self_time_arithmetic_on_nested_spans():
    # op [0, 10] holds a [1, 5] (holding b [2, 4]) and b [7, 8].
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 8.0, 10.0])
    rec = layers.Recorder(clock=lambda: next(ticks))
    rec.push(layers.ROOT)
    rec.push("a")
    rec.push("b")
    rec.pop()
    rec.pop()
    rec.push("b")
    rec.pop()
    assert rec.pop() == 10.0
    assert rec.self_s == {"b": 3.0, "a": 2.0, layers.ROOT: 5.0}
    assert rec.calls == {"b": 2, "a": 1, layers.ROOT: 1}
    assert sum(rec.self_s.values()) == 10.0
    parents = {span[0]: span[1] for span in rec.spans}
    assert parents == {0: None, 1: 0, 2: 1, 3: 0}
    metrics = layers.stage_metrics(rec, 10.0, passes=2)
    assert metrics["bench.op.self_s"] == 2.5 and metrics["bench.op.share"] == 0.5


class Toy:
    def work(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


def test_wrappers_record_only_inside_ops_and_restore():
    original = Toy.work
    rec = layers.Recorder()
    stages = {
        "toy.work": (f"{__name__}:Toy.work",),
        "toy.inner": (f"{__name__}:Toy.inner", f"{__name__}:Toy.gone"),
        "toy.ghost": ("no_such_module:f",),
    }
    with layers.installed(rec, stages) as missing:
        assert missing == ["toy.ghost"]
        assert Toy().work(1) == 3  # no op open: not recorded
        rec.push(layers.ROOT)
        assert Toy().work(2) == 5
        rec.pop()
    assert Toy.work is original
    assert rec.calls == {"toy.inner": 1, "toy.work": 1, layers.ROOT: 1}


class _Fake(workloads.Workload):
    name = "fake"
    pass_ops = 3

    def make_input(self, seed, index):
        return index

    def run(self, op):
        time.sleep(0.01)
        return op

    def check(self, op, result):
        return {"digest": f"d{result}", "work": 1}


def test_digest_mismatch_counts_as_failed_op():
    wl = _Fake({"ops": ["d0", "wrong", "d2"]})
    # The first pass of 3 ops ends past 0.02 s, so it is the only one.
    cal = Calibrator()
    try:
        op_times, totals, attempted, failed = worker.run_ops(
            wl, workloads.DEFAULT_SEED, 0.02, cal
        )
        assert attempted == 3
        assert failed == 1
        assert len(op_times) == attempted - 1 == totals["work"]
        # Other seeds have no recorded outputs to differ from.
        assert worker.run_ops(wl, 5, 0.02, cal)[3] == 0
        assert all(cal.reference_s(t, d) > 0 for t, d in op_times)
    finally:
        cal.close()


def test_busy_threads_during_slices_are_flagged():
    cal = Calibrator()
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    try:
        cal.take()
        assert not cal.contended()
        thread = threading.Thread(target=spin)
        thread.start()
        try:
            for _ in range(3):
                cal.take()
        finally:
            stop.set()
            thread.join()
        assert cal.contended()
    finally:
        cal.close()


def test_request_invariants():
    class Req:
        def __init__(self, arrival, completion):
            self.arrival_ms, self.completion_ms = arrival, completion
            self.served, self.dropped, self.failed = True, False, False

    workloads._check_requests([Req(0.0, 1.0)], 1, [5.0])
    with pytest.raises(workloads.CheckError):
        workloads._check_requests([Req(2.0, 1.0)], 1, [5.0])
    with pytest.raises(workloads.CheckError):
        workloads._check_requests([Req(0.0, 1.0)], 2, [5.0])
    with pytest.raises(workloads.CheckError):
        workloads._check_requests([Req(0.0, 1.0)], 1, [float("nan")])


def test_band_mean_is_a_smoothed_percentile():
    one_pass = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert worker.band_mean(one_pass, 0.4, 0.6) == 3.0
    assert worker.band_mean(one_pass, 0.0, 1.0) == 3.0
    assert worker.band_mean(one_pass, 0.7, 0.9) == 4.5
    # k copies of one pass give the same value.
    assert worker.band_mean(one_pass * 3, 0.7, 0.9) == pytest.approx(4.5)
