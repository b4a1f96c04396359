"""Fleet-scale observability pipeline: native engine tracing, trace
sampling, the windowed time-series/SLO layer, and the OBS002 lint gate.

Contracts under test:

* **Native tracing stays on the fast path** — neither an enabled
  tracer nor a fault injector sends the event engine through the
  per-arrival ``submit`` loop, and the traced cluster replay
  (``trace_nodes=True``) matches the JSONL digest in
  ``tests/golden/fleet_digests.json``.
* **Sampling is a pure post-hoc pass** — head/tail decisions consume
  zero simulation RNG, so sampled and unsampled runs are
  float-identical; decisions are deterministic in (seed, req).
* **Rollups and burn rates are pure functions of the observations** —
  same stream, same windows, same alerts, every run.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import apps as apps_mod
from repro import runtime
from repro.cluster import AutoscalerConfig, ClusterSimulation
from repro.faults import FaultSchedule
from repro.lint import LintContext, Severity, run_lint
from repro.lint.runtime_rules import OBS002_FLEET_NODES
from repro.obs import (
    SLO,
    AlertEvent,
    MetricsRegistry,
    SamplingPolicy,
    SpanTracer,
    TimeSeriesStore,
    default_slos,
    evaluate_slos,
    feed_simulation_result,
    head_keep,
    render_slo_json,
    sample_events,
)
from repro.runtime import poisson_arrivals, run_simulation
from repro.runtime.node import LeafNode

from golden_cases import (
    FLEET_FILE,
    digest,
    fault_fleet_digest,
    jsonl_bytes,
    jsonl_digest,
    load,
    run_traced_fault_injected_fleet,
    run_traced_fleet,
)


@pytest.fixture(scope="module")
def asr():
    app = apps_mod.build("ASR")
    system = runtime.setting("I", "Heter-Poly")
    return app, system, app.explore(system.platforms)


def _arrivals(rps=40.0, duration_ms=3_000.0, seed=3):
    return poisson_arrivals(rps, duration_ms, rng=np.random.default_rng(seed))


def _traced_run(asr, arrivals, seed=3, tracer=None):
    app, system, spaces = asr
    tracer = tracer if tracer is not None else SpanTracer()
    result = run_simulation(
        system, app, spaces, arrivals, seed=seed, tracer=tracer
    )
    return result, tracer


# ---------------------------------------------------------------------------
# satellite: tracing and faults must not push the engine off the fast path
# ---------------------------------------------------------------------------


def _no_submit(self, *args, **kwargs):
    raise AssertionError("the engine called LeafNode.submit")


class TestTracedEngineNotDelegated:
    """``LeafNode.submit`` is the reference path only: the engine runs
    traced and fault-injected nodes through its generated programs."""

    def test_enabled_tracer_keeps_native_loop(self, asr, monkeypatch):
        """Regression for the PR-7 predicate: an enabled tracer used to
        force per-arrival delegation; native emission must keep the
        event engine on its compiled fast path."""
        monkeypatch.setattr(LeafNode, "submit", _no_submit)
        result, tracer = _traced_run(asr, _arrivals())
        assert len(tracer.events) > 0
        assert all(r.served for r in result.requests)

    def test_injector_never_calls_submit(self, asr, monkeypatch):
        """A fault-injected node, alone or in a fleet, runs natively:
        retries, failovers and shedding all happen without ``submit``."""
        app, system, spaces = asr
        monkeypatch.setattr(LeafNode, "submit", _no_submit)
        devices = [d for d, _ in system.device_inventory()]
        schedule = FaultSchedule.from_mtbf(
            devices, 3_000.0, 600.0, 300.0, seed=2,
            transient_rate_per_s=5.0, slowdown_prob=0.3,
        )
        arrivals = _arrivals(rps=60.0)
        priorities = np.random.default_rng(2).uniform(size=len(arrivals))
        result = run_simulation(
            system, app, spaces, arrivals, seed=3, faults=schedule,
            priorities=priorities, tracer=SpanTracer(),
        )
        assert result.faults.retries > 0
        assert result.faults.recoveries

        sim = ClusterSimulation(
            [system], app, spaces,
            config=AutoscalerConfig(min_nodes=2, max_nodes=2),
            seed=3, fault_schedules={"node0": schedule},
        )
        fleet = sim.run(_arrivals(rps=60.0), horizon_ms=3_000.0)
        served_by_node0 = [
            r for node_id, r in zip(fleet.node_ids, fleet.requests)
            if node_id == "node0"
        ]
        assert served_by_node0
        assert fleet.nodes[0].leaf._injector.report.retries > 0

    def test_traced_event_run_emits_native_stream(self, asr):
        result, tracer = _traced_run(asr, _arrivals())
        assert len(tracer.events) > 0
        kinds = {e.kind for e in tracer.events}
        assert {"request.admit", "kernel.dispatch", "request.complete"} <= kinds


# ---------------------------------------------------------------------------
# tentpole 1: cluster traced A/B byte-identity
# ---------------------------------------------------------------------------


class TestClusterTracedIdentity:
    def test_fleet_stream_byte_identical(self, asr):
        """The traced fleet replay (per-node spans) against the latency
        and JSONL digests recorded from the per-arrival reference
        driver."""
        result, tracer = run_traced_fleet(asr)
        data = jsonl_bytes(tracer.events)
        assert data
        golden = load(FLEET_FILE)
        assert digest(result.latencies_ms()) == golden["traced_latencies"]
        assert hashlib.sha256(data).hexdigest()[:16] == golden["traced_jsonl"]

    def test_fault_injected_fleet_stream(self, asr):
        """A traced fleet whose node0 runs an MTBF schedule with
        transients and slowdowns: node0's dispatch programs, its retry
        path and the router's ``cluster.route`` share one stream, pinned
        with the fleet signature and served flags."""
        result, tracer = run_traced_fault_injected_fleet(asr)
        golden = load(FLEET_FILE)["traced_fault_injected"]
        assert fault_fleet_digest(result) == golden["fleet"]
        assert jsonl_digest(tracer.events) == golden["jsonl"]
        kinds = {e.kind for e in tracer.events}
        assert {
            "cluster.route", "fault.inject", "fault.retry", "fault.failover"
        } <= kinds


# ---------------------------------------------------------------------------
# tentpole 2: deterministic sampling, zero sim-RNG impact
# ---------------------------------------------------------------------------


class TestSampling:
    def test_head_keep_edge_rates(self):
        assert not any(head_keep(0, r, 0.0) for r in range(50))
        assert all(head_keep(0, r, 1.0) for r in range(50))

    def test_head_keep_deterministic_and_seed_sensitive(self):
        picks = [head_keep(7, r, 0.3) for r in range(200)]
        assert picks == [head_keep(7, r, 0.3) for r in range(200)]
        assert picks != [head_keep(8, r, 0.3) for r in range(200)]
        assert 20 < sum(picks) < 100  # ~60 expected

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SamplingPolicy(head_rate=1.5)
        with pytest.raises(ValueError):
            SamplingPolicy(head_rate=-0.1)
        with pytest.raises(ValueError):
            SamplingPolicy(tail_top_k=-1)

    def test_sampled_run_float_identical(self, asr):
        """Sampling is post-hoc: the simulated results with and without
        a sampling pass must match to the last float."""
        arrivals = _arrivals()
        plain, _ = _traced_run(asr, arrivals)
        sampled_result, tracer = _traced_run(asr, arrivals)
        sample_events(
            tracer.events,
            SamplingPolicy(head_rate=0.1, seed=1, tail_qos_ms=300.0),
        )
        assert np.array_equal(
            np.asarray(plain.latencies_ms()),
            np.asarray(sampled_result.latencies_ms()),
            equal_nan=True,
        )

    def test_decisions_deterministic_and_counters(self, asr):
        _, tracer = _traced_run(asr, _arrivals())
        policy = SamplingPolicy(head_rate=0.2, seed=9, tail_qos_ms=300.0)
        registry = MetricsRegistry()
        first = sample_events(tracer.events, policy, registry=registry)
        second = sample_events(tracer.events, policy)
        assert [e.seq for e in first.events] == [e.seq for e in second.events]
        assert first.kept_requests == second.kept_requests
        total = len(tracer.events)
        assert 0 < len(first.events) < total
        assert first.dropped_spans == total - len(first.events)
        assert registry.value("dropped_spans_total") == first.dropped_spans
        family = registry.snapshot()["sampled_requests_total"]["series"]
        decisions = sum(family.values())
        assert decisions == len(first.kept_requests) + first.dropped_requests
        labels = {ls.split('"')[1] for ls in family}
        assert labels <= {"head", "tail_qos", "tail_fault", "tail_topk", "drop"}

    def test_kept_events_preserve_order_and_lifecycle(self, asr):
        _, tracer = _traced_run(asr, _arrivals())
        sampled = sample_events(
            tracer.events, SamplingPolicy(head_rate=0.15, seed=2)
        )
        seqs = [e.seq for e in sampled.events]
        assert seqs == sorted(seqs)
        kept = set(sampled.kept_requests)
        for e in sampled.events:
            if e.kind in ("request.admit", "request.complete"):
                assert e.args["req"] in kept
        # every kept request keeps its complete span
        admits = {
            e.args["req"] for e in sampled.events
            if e.kind == "request.admit"
        }
        assert admits == kept

    def test_tail_topk_keeps_slowest(self, asr):
        _, tracer = _traced_run(asr, _arrivals())
        latency = {
            e.args["req"]: e.args["latency_ms"]
            for e in tracer.events
            if e.kind == "request.complete"
        }
        k = 5
        policy = SamplingPolicy(head_rate=0.0, seed=0, tail_top_k=k)
        sampled = sample_events(tracer.events, policy)
        ranked = sorted(latency.items(), key=lambda kv: (-kv[1], kv[0]))
        expected = {rq for rq, _ in ranked[:k]}
        kept_topk = {
            rq for rq, why in sampled.kept_requests.items()
            if why == "tail_topk"
        }
        assert kept_topk == expected


# ---------------------------------------------------------------------------
# tentpole 3: time-series rollups and SLO burn-rate alerting
# ---------------------------------------------------------------------------


class TestTimeSeries:
    def test_rollup_percentiles(self):
        store = TimeSeriesStore(window_ms=100.0)
        for i in range(100):
            store.observe("latency_ms", 50.0, float(i + 1))
        (w,) = store.rollup("latency_ms")
        assert w.count == 100
        assert w.p50 == pytest.approx(50.5)
        assert w.p99 == pytest.approx(99.01)
        assert w.minimum == 1.0 and w.maximum == 100.0

    def test_windows_partition_time(self):
        store = TimeSeriesStore(window_ms=1000.0)
        store.observe("latency_ms", 250.0, 1.0)
        store.observe("latency_ms", 1250.0, 3.0)
        store.observe("latency_ms", 2750.0, 5.0)
        ws = store.rollup("latency_ms")
        assert [(w.start_ms, w.end_ms) for w in ws] == [
            (0.0, 1000.0), (1000.0, 2000.0), (2000.0, 3000.0)
        ]
        assert store.span_ms == 3000.0

    def test_rejects_bad_input(self):
        store = TimeSeriesStore()
        with pytest.raises(ValueError):
            store.observe("latency_ms", -1.0, 1.0)
        with pytest.raises(ValueError):
            store.observe("latency_ms", 0.0, float("nan"))
        with pytest.raises(ValueError):
            TimeSeriesStore(window_ms=0.0)

    def test_feed_simulation_result(self, asr):
        app, system, spaces = asr
        result = run_simulation(system, app, spaces, _arrivals(), seed=3)
        store = TimeSeriesStore(window_ms=500.0)
        feed_simulation_result(store, result, qos_ms=app.qos_ms)
        assert "latency_ms" in store.series_names()
        assert "qos_attained" in store.series_names()
        assert "queue_depth" in store.series_names()
        total = sum(w.count for w in store.rollup("latency_ms"))
        served = sum(1 for r in result.requests if r.served)
        assert total == served

    def test_prometheus_rendering(self):
        store = TimeSeriesStore(window_ms=1000.0)
        store.observe("power_w", 10.0, 42.0)
        text = store.render_prometheus()
        assert 'timeseries_count{series="power_w",window_start_ms="0"} 1' in text
        assert text.endswith("\n")

    def test_snapshot_deterministic(self):
        def build():
            s = TimeSeriesStore(window_ms=250.0)
            for i in range(20):
                s.observe("latency_ms", i * 40.0, float(i))
            return s.to_json()

        assert build() == build()


class TestSLO:
    def _store(self, bad_frac, window_ms=1000.0, n_windows=12, per=50):
        """qos_attained stream with a fixed bad fraction per window."""
        store = TimeSeriesStore(window_ms=window_ms)
        bad_per = int(per * bad_frac)
        for w in range(n_windows):
            for i in range(per):
                t = w * window_ms + (i + 0.5) * window_ms / per
                store.observe("qos_attained", t, 0.0 if i < bad_per else 1.0)
        return store

    def _slo(self, **kw):
        defaults = dict(
            name="qos", series="qos_attained", objective=0.95,
            fast_window_ms=2000.0, slow_window_ms=8000.0,
            fast_burn=4.0, slow_burn=2.0,
        )
        defaults.update(kw)
        return SLO(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._slo(objective=1.0)
        with pytest.raises(ValueError):
            self._slo(fast_window_ms=9000.0)  # fast > slow
        with pytest.raises(ValueError):
            self._slo(fast_burn=0.0)

    def test_healthy_stream_no_alerts(self):
        store = self._store(bad_frac=0.0)
        assert evaluate_slos(store, [self._slo()]) == []

    def test_sustained_burn_fires_and_coalesces(self):
        # 40% bad vs a 5% budget: burn rate 8x in every window, well
        # past both gates -> exactly one coalesced alert.
        store = self._store(bad_frac=0.4)
        alerts = evaluate_slos(store, [self._slo()])
        assert len(alerts) == 1
        alert = alerts[0]
        assert isinstance(alert, AlertEvent)
        assert alert.slo == "qos"
        assert alert.burn_fast == pytest.approx(8.0)
        assert alert.end_ms > alert.t_ms

    def test_alert_emits_trace_event_and_metrics(self):
        store = self._store(bad_frac=0.4)
        tracer = SpanTracer()
        registry = MetricsRegistry()
        alerts = evaluate_slos(
            store, [self._slo()], tracer=tracer, registry=registry
        )
        emitted = [e for e in tracer.events if e.kind == "slo.alert"]
        assert len(emitted) == len(alerts) == 1
        assert emitted[0].args["slo"] == "qos"
        assert registry.value("slo_alerts_total", slo="qos") == 1

    def test_threshold_slo_on_latency(self):
        store = TimeSeriesStore(window_ms=1000.0)
        for w in range(8):
            for i in range(20):
                store.observe(
                    "latency_ms", w * 1000.0 + i * 50.0 + 1.0, 500.0
                )
        slo = SLO(
            name="p99", series="latency_ms", objective=0.99,
            threshold=300.0, fast_window_ms=2000.0,
            slow_window_ms=4000.0, fast_burn=2.0, slow_burn=2.0,
        )
        alerts = evaluate_slos(store, [slo])
        assert len(alerts) == 1  # every sample violates -> one long alert

    def test_default_slos_shape(self):
        slos = default_slos(qos_ms=300.0, window_ms=1000.0)
        assert [s.name for s in slos] == ["qos-attainment", "p99-latency"]
        assert slos[1].threshold == 300.0

    def test_render_slo_json_deterministic(self):
        store = self._store(bad_frac=0.4)
        slos = [self._slo()]
        alerts = evaluate_slos(store, slos)
        a = render_slo_json(store, slos, alerts)
        b = render_slo_json(store, slos, evaluate_slos(store, slos))
        assert a == b
        doc = json.loads(a)
        assert doc["alerts"][0]["slo"] == "qos"


# ---------------------------------------------------------------------------
# satellite: OBS002 lint gate
# ---------------------------------------------------------------------------


class TestObs002Lint:
    def _sim(self, asr, max_nodes=4, tracer=None, sampler=None,
             trace_nodes=False):
        app, system, spaces = asr
        return ClusterSimulation(
            system, app, spaces,
            config=AutoscalerConfig(min_nodes=1, max_nodes=max_nodes),
            seed=0, tracer=tracer, sampler=sampler, trace_nodes=trace_nodes,
        )

    def _diags(self, sim):
        report = run_lint(sim, LintContext())
        return [d for d in report.diagnostics if d.rule == "OBS002"]

    def test_fires_on_traced_unsampled_fleet(self, asr):
        diags = self._diags(self._sim(asr, tracer=SpanTracer()))
        assert len(diags) == 1
        assert diags[0].severity is Severity.WARNING

    def test_message_mentions_node_spans_when_trace_nodes(self, asr):
        diags = self._diags(
            self._sim(asr, tracer=SpanTracer(), trace_nodes=True)
        )
        assert "trace_nodes" in diags[0].message

    def test_sampler_suppresses(self, asr):
        sim = self._sim(
            asr, tracer=SpanTracer(),
            sampler=SamplingPolicy(head_rate=0.1, tail_qos_ms=300.0),
        )
        assert self._diags(sim) == []

    def test_small_fleet_suppresses(self, asr):
        sim = self._sim(
            asr, max_nodes=OBS002_FLEET_NODES - 1, tracer=SpanTracer()
        )
        assert self._diags(sim) == []

    def test_untraced_suppresses(self, asr):
        assert self._diags(self._sim(asr)) == []

    def test_warning_does_not_fail_gate(self, asr):
        report = run_lint(self._sim(asr, tracer=SpanTracer()), LintContext())
        assert report.ok


# ---------------------------------------------------------------------------
# satellite: Prometheus exposition edge cases
# ---------------------------------------------------------------------------


class TestPrometheusEdgeCases:
    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter("odd_labels_total", path='a\\b"c\nd').inc()
        text = registry.render_prometheus()
        assert 'path="a\\\\b\\"c\\nd"' in text
        # round-trips: one physical line per sample
        sample_lines = [
            ln for ln in text.splitlines() if not ln.startswith("#")
        ]
        assert len(sample_lines) == 1

    def test_histogram_inf_bucket_and_counts(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat_ms", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 100.0):
            h.observe(v)
        text = registry.render_prometheus()
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="10"} 2' in text
        assert 'lat_ms_bucket{le="+Inf"} 3' in text
        assert "lat_ms_count 3" in text

    def test_empty_registry_renders(self):
        assert MetricsRegistry().render_prometheus() == "\n"

    def test_escaped_labels_not_in_json_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("odd_labels_total", path="a\\b").inc()
        snap = registry.snapshot()
        assert 'path="a\\b"' in snap["odd_labels_total"]["series"]
