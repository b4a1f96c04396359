"""Observability subsystem: tracer, metrics registry, exporters, CLI.

The two contracts under test here back every acceptance criterion of
the obs work:

* **Zero overhead when disabled** — with the default ``NULL_TRACER``
  a simulation is bit-identical to an uninstrumented run.
* **Determinism when enabled** — a seeded traced run produces a
  byte-identical event stream, metrics snapshot and Perfetto JSON
  every time.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import runtime
from repro.cli import main as cli_main
from repro.experiments import harness
from repro.faults import FaultSchedule
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    EVENT_SCHEMA,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    SpanTracer,
    chrome_trace,
    log_buckets,
    placement_digest,
    write_events_jsonl,
    write_metrics_json,
    write_perfetto_json,
)

GOLDEN_SCHEMA = Path(__file__).resolve().parent / "golden" / "obs_event_schema.json"


@pytest.fixture(scope="module")
def heter_setup():
    app = harness.get_app("ASR")
    system = runtime.setting("I", "Heter-Poly")
    spaces = harness.spaces_for(app, system)
    return app, system, spaces


def _arrivals(rps=20.0, duration_ms=3_000.0, seed=11):
    return runtime.poisson_arrivals(
        rps, duration_ms, rng=np.random.default_rng(seed)
    )


def _traced_run(heter_setup, seed=11, faults=None):
    app, system, spaces = heter_setup
    tracer = SpanTracer()
    registry = MetricsRegistry()
    result = runtime.run_simulation(
        system, app, spaces, _arrivals(seed=seed),
        faults=faults, tracer=tracer, metrics=registry,
    )
    return result, tracer, registry


class TestTracer:
    def test_null_tracer_is_inert(self):
        NULL_TRACER.emit("request.admit", req=0, priority=1.0)
        NULL_TRACER.emit("not.a.kind")  # not even validated
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.events == []
        assert not NULL_TRACER.enabled

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            SpanTracer().emit("request.teleport", req=0)

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ValueError, match="missing fields.*priority"):
            SpanTracer().emit("request.admit", req=0)

    def test_seq_is_emission_order(self):
        tr = SpanTracer()
        tr.emit("request.admit", t_ms=5.0, req=0, priority=1.0)
        tr.emit("request.shed", t_ms=1.0, req=1)  # earlier ts, later seq
        assert [e.seq for e in tr.events] == [0, 1]
        assert [e.kind for e in tr.events] == ["request.admit", "request.shed"]

    def test_t_ms_defaults_to_sim_clock(self):
        tr = SpanTracer()
        tr.now_ms = 42.5
        tr.emit("request.shed", req=0)
        tr.emit("request.shed", t_ms=7.0, req=1)
        assert tr.events[0].ts_ms == 42.5
        assert tr.events[1].ts_ms == 7.0

    def test_extra_fields_allowed_and_kept(self):
        tr = SpanTracer()
        tr.emit("request.shed", req=0, reason="overload")
        assert tr.events[0].args["reason"] == "overload"

    def test_by_kind_and_clear(self):
        tr = SpanTracer()
        tr.emit("request.admit", req=0, priority=1.0)
        tr.emit("request.shed", req=1)
        assert len(tr.by_kind("request.shed")) == 1
        tr.clear()
        assert len(tr) == 0 and tr.now_ms == 0.0


class TestMetrics:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc()
        c.inc(2)
        assert reg.value("x_total") == 3.0
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_labels_identify_series(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", device="gpu0").inc(5)
        reg.counter("hits_total", device="fpga0").inc(7)
        assert reg.value("hits_total", device="gpu0") == 5.0
        assert reg.value("hits_total", device="fpga0") == 7.0
        assert len(reg) == 2

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("bad name")
        with pytest.raises(ValueError, match="invalid label name"):
            reg.counter("ok", **{"bad-label": "v"})

    def test_log_buckets_shape(self):
        b = log_buckets(1.0, 8.0)
        assert b == (1.0, 2.0, 4.0, 8.0)
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.25
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 16_000.0
        with pytest.raises(ValueError):
            log_buckets(0.0, 8.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 8.0, factor=1.0)

    def test_histogram_buckets_and_quantile(self):
        h = Histogram((1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 5 and h.sum == pytest.approx(560.5)
        assert h.counts == [1, 2, 1, 1]  # last is +Inf
        # Upper-bound quantile: rank 3 of 5 lands in the <=10 bucket.
        assert h.quantile(0.5) == 10.0
        assert h.quantile(1.0) == math.inf  # one obs beyond the last bound
        with pytest.raises(ValueError):
            h.observe(math.inf)
        assert math.isnan(Histogram((1.0,)).quantile(0.99))

    def test_snapshot_and_json_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b_total", device="g").inc(2)
            reg.counter("a_total").inc()
            reg.histogram("lat_ms", bounds=(1.0, 10.0)).observe(3.0)
            return reg

        assert build().to_json() == build().to_json()
        snap = build().snapshot()
        assert snap["a_total"]["type"] == "counter"
        assert snap["b_total"]["series"]['device="g"'] == 2.0
        assert snap["lat_ms"]["series"][""]["count"] == 1

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", outcome="served").inc(3)
        reg.gauge("occupancy", device="gpu0").set(0.5)
        reg.histogram("lat_ms", bounds=(1.0, 10.0)).observe(3.0)
        text = reg.render_prometheus()
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{outcome="served"} 3' in text
        assert 'occupancy{device="gpu0"} 0.5' in text
        assert 'lat_ms_bucket{le="1"} 0' in text
        assert 'lat_ms_bucket{le="10"} 1' in text
        assert 'lat_ms_bucket{le="+Inf"} 1' in text
        assert "lat_ms_sum 3" in text and "lat_ms_count 1" in text
        assert text.endswith("\n")


class TestChromeTrace:
    def _events(self):
        tr = SpanTracer()
        tr.emit("request.admit", t_ms=0.0, req=0, priority=1.0)
        tr.emit(
            "kernel.dispatch", t_ms=1.0, req=0, kernel="K", device="gpu0",
            point=0, start_ms=1.0, end_ms=2.0,
        )
        tr.emit(
            "kernel.exec", name="K", t_ms=1.0, dur_ms=1.5, kernel="K",
            device="gpu0", point=0, power_w=10.0, batch=1,
        )
        return tr.events

    def test_track_layout(self):
        doc = chrome_trace(self._events())
        assert doc["displayTimeUnit"] == "ms"
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"]: e["tid"] for e in meta if e["name"] == "thread_name"}
        # Five control tracks plus the one device seen in the events.
        assert names["requests"] == 1 and names["monitor"] == 5
        assert names["device gpu0"] == 10

    def test_exec_becomes_complete_slice_in_us(self):
        doc = chrome_trace(self._events())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1
        x = slices[0]
        assert x["name"] == "K" and x["cat"] == "kernel.exec"
        assert x["ts"] == pytest.approx(1000.0)  # 1 ms -> 1000 us
        assert x["dur"] == pytest.approx(1500.0)
        assert x["tid"] == 10

    def test_dispatch_lands_on_device_track(self):
        doc = chrome_trace(self._events())
        instants = {e["cat"]: e for e in doc["traceEvents"] if e["ph"] == "i"}
        assert instants["kernel.dispatch"]["tid"] == 10
        assert instants["request.admit"]["tid"] == 1
        assert all(e["s"] == "t" for e in instants.values())

    def test_perfetto_file_one_sorted_event_per_line(self, tmp_path):
        """The written file parses to the ``chrome_trace`` document and
        holds one sorted-key trace event per line."""
        events = self._events()
        path = write_perfetto_json(events, tmp_path / "trace.json")
        text = path.read_text()
        doc = chrome_trace(events)
        assert json.loads(text) == doc
        lines = text.splitlines()
        assert lines[0] == '{"displayTimeUnit": "ms", "traceEvents": ['
        assert lines[-1] == "]}" and text.endswith("]}\n")
        body = [line.rstrip(",") for line in lines[1:-1]]
        assert body == [
            json.dumps(e, sort_keys=True) for e in doc["traceEvents"]
        ]


class TestDisabledParity:
    """Acceptance: tracing disabled -> bit-identical to an untraced run."""

    def test_traced_equals_untraced(self, heter_setup):
        app, system, spaces = heter_setup
        plain = runtime.run_simulation(system, app, spaces, _arrivals())
        traced, tracer, _ = _traced_run(heter_setup)
        assert len(tracer) > 0
        assert plain.latencies_ms() == traced.latencies_ms()
        assert np.array_equal(plain.power_bins_w, traced.power_bins_w)
        assert plain.p99_ms == traced.p99_ms


class TestTracedDeterminism:
    """Acceptance: same-seed traced runs -> byte-identical artifacts."""

    def test_artifacts_byte_identical(self, heter_setup, tmp_path):
        files = {}
        for tag in ("a", "b"):
            _, tracer, registry = _traced_run(heter_setup)
            d = tmp_path / tag
            d.mkdir()
            write_events_jsonl(tracer.events, d / "events.jsonl")
            write_perfetto_json(tracer.events, d / "trace.json")
            write_metrics_json(registry, d / "metrics.json")
            files[tag] = d
        for name in ("events.jsonl", "trace.json", "metrics.json"):
            a = (files["a"] / name).read_bytes()
            b = (files["b"] / name).read_bytes()
            assert a == b, f"{name} differs between same-seed runs"


class TestEventCoverage:
    def test_fault_free_lifecycle_kinds(self, heter_setup):
        _, tracer, _ = _traced_run(heter_setup)
        kinds = {e.kind for e in tracer.events}
        assert {
            "request.admit", "request.complete", "sched.place",
            "plan.computed", "kernel.dispatch", "kernel.exec",
            "monitor.snapshot",
        } <= kinds
        assert not any(k.startswith("fault.") for k in kinds)

    def test_device_tracks_cover_every_scheduled_kernel(self, heter_setup):
        """Acceptance: the Perfetto doc has a track per active device and
        a slice for every realized execution."""
        result, tracer, _ = _traced_run(heter_setup)
        node = result.node
        doc = chrome_trace(tracer.events)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        records = node.all_records()
        assert len(slices) == len(records) > 0
        by_device_trace = {}
        for s in slices:
            by_device_trace.setdefault(s["args"]["device"], set()).add(s["name"])
        for dev in node.devices:
            kernels = {r.kernel_name for r in dev.records}
            if kernels:
                assert by_device_trace[dev.device_id] == kernels

    def test_fault_kinds_traced(self, heter_setup):
        schedule = FaultSchedule.single_crash(
            "fpga0", at_ms=1_000.0, recover_at_ms=2_500.0
        )
        result, tracer, _ = _traced_run(heter_setup, faults=schedule)
        kinds = {e.kind for e in tracer.events}
        assert {"fault.inject", "fault.heartbeat_miss", "fault.failover",
                "fault.recover"} <= kinds
        injections = tracer.by_kind("fault.inject")
        assert {e.name for e in injections} == {"device_crash", "recovery"}
        failover = tracer.by_kind("fault.failover")[0]
        assert failover.args["device"] == "fpga0"
        assert failover.args["detected_ms"] >= failover.args["failed_ms"]


class TestSimulationMetrics:
    def test_registry_families(self, heter_setup):
        result, _, registry = _traced_run(heter_setup)
        served = registry.value("requests_total", outcome="served")
        shed = registry.value("requests_total", outcome="shed")
        failed = registry.value("requests_total", outcome="failed")
        assert served + shed + failed == len(result.requests)
        hist = registry.value("request_latency_ms")
        assert hist["count"] == len(result.latencies_ms())
        assert registry.value("qos_bound_ms") == result.node.app.qos_ms
        # Occupancy in [0, 1] for every pooled device.
        for dev in result.node.devices:
            occ = registry.value("device_occupancy", device=dev.device_id)
            assert 0.0 <= occ <= 1.0
        assert registry.value("request_retries_total") == 0.0

    def test_placement_digest_mentions_devices(self, heter_setup):
        result, _, _ = _traced_run(heter_setup)
        digest = placement_digest(result, result.node)
        assert "ASR" in digest and "p99" in digest
        for dev in result.node.devices:
            assert dev.device_id in digest


class TestGoldenEventSchema:
    """CI golden test: the JSONL schema is a published artifact —
    widening it is an additive change, narrowing or renaming breaks
    downstream consumers and must show up in this diff."""

    def test_schema_matches_golden(self):
        golden = json.loads(GOLDEN_SCHEMA.read_text())
        live = {k: list(v) for k, v in EVENT_SCHEMA.items()}
        assert live == golden, (
            "EVENT_SCHEMA changed; update tests/golden/obs_event_schema.json "
            "and the DESIGN.md event-taxonomy table together"
        )

    def test_jsonl_lines_validate_against_golden(self, heter_setup, tmp_path):
        golden = json.loads(GOLDEN_SCHEMA.read_text())
        schedule = FaultSchedule.single_crash(
            "fpga0", at_ms=1_000.0, recover_at_ms=2_500.0
        )
        _, tracer, _ = _traced_run(heter_setup, faults=schedule)
        path = write_events_jsonl(tracer.events, tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(tracer.events)
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["seq"] == i
            assert set(rec) <= {"seq", "ts_ms", "kind", "name", "args", "dur_ms"}
            required = golden[rec["kind"]]
            missing = [f for f in required if f not in rec["args"]]
            assert not missing, f"line {i}: {rec['kind']} missing {missing}"


class TestCLI:
    """``repro simulate --out-dir``: the traced single-node run."""

    def test_obs_command_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "obs"
        rc = cli_main([
            "simulate", "ASR", "--rps", "10", "--ms", "2000",
            "--out-dir", str(out), "--summary",
        ])
        assert rc == 0
        names = (
            "trace.perfetto.json", "events.jsonl", "metrics.json",
            "metrics.prom",
        )
        assert sorted(path.name for path in out.iterdir()) == sorted(names)
        doc = json.loads((out / "trace.perfetto.json").read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        captured = capsys.readouterr()
        assert "p99" in captured.out and "busy" in captured.out
        assert "events" in captured.err
        assert [line.split()[-1] for line in captured.err.splitlines()
                if "wrote" in line] == [str(out / name) for name in names]

    def test_obs_command_unknown_app(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "NOPE", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_json_stdout_does_not_depend_on_out_dir(self, tmp_path, capsys):
        """Tracing does not move the run: ``--json`` prints the same
        bytes with and without artifacts, and only the document."""
        argv = ["simulate", "ASR", "--rps", "20", "--ms", "2000", "--json",
                "--crash", "fpga0@500", "--recover", "fpga0@1500"]
        outputs = []
        for extra in ([], ["--out-dir", str(tmp_path / "obs"), "--report",
                           "--sample-rate", "0.5"]):
            assert cli_main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        row = json.loads(outputs[0])["apps"]["ASR"]
        assert row["recoveries"] == 1.0
        assert (tmp_path / "obs" / "report.json").exists()

    def test_obs_command_with_faults(self, tmp_path):
        out = tmp_path / "obs"
        rc = cli_main([
            "simulate", "ASR", "--rps", "10", "--ms", "2000",
            "--out-dir", str(out),
            "--crash", "fpga0@500", "--recover", "fpga0@1500",
        ])
        assert rc == 0
        kinds = {
            json.loads(line)["kind"]
            for line in (out / "events.jsonl").read_text().splitlines()
        }
        assert "fault.inject" in kinds
