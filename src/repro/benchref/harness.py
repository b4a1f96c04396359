"""Benchmark harness: timed DSE / scheduler / simulation trials.

Everything here is deterministic modulo wall-clock noise: the DSE and
scheduler are pure functions of the app and platform specs, and the
simulation replays a seeded Poisson stream.  Timings use
``time.perf_counter`` and are reported per trial plus as medians, so a
single noisy trial cannot fake a regression.

To make results comparable across machines of different speeds, every
run also times a fixed pure-Python calibration workload; gates divide
measured times by the calibration time (see
:mod:`repro.benchref.compare`), turning "seconds on this box" into
"multiples of this box's scalar speed".
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import apps as apps_mod
from .. import runtime
from ..hardware.model_cache import clear_model_cache, model_cache
from ..scheduler import DeviceSlot, PolyScheduler

__all__ = [
    "SCHEMA_VERSION",
    "run_bench",
    "write_bench_json",
    "default_output_path",
    "render_bench",
    "calibrate",
]

#: Bump only on breaking changes to the BENCH JSON layout; consumers
#: (the CI gate, trend tooling) key off this.
SCHEMA_VERSION = 1

#: Iterations of the calibration loop (a fixed integer-sum workload).
_CALIBRATION_LOOPS = 2_000_000


def calibrate() -> float:
    """Seconds this machine needs for the fixed calibration workload."""
    start = time.perf_counter()
    acc = 0
    for i in range(_CALIBRATION_LOOPS):
        acc += i & 1023
    elapsed = time.perf_counter() - start
    # Keep the accumulator alive so the loop cannot be optimized away.
    assert acc >= 0
    return elapsed


def _timed_trials(fn, trials: int) -> List[float]:
    """Time ``trials`` calls of ``fn`` with the cyclic GC paused.

    Collector pauses scale with the number of live objects, so a trial
    late in a long process (a full-suite run, the test session) would
    otherwise measure the *process history* rather than ``fn`` — the
    allocation-heavy simulation trials drifted 2-4x slower purely from
    accumulated gen-2 scan cost.  Collecting up front and disabling the
    GC for the timed window removes that noise; refcounting still frees
    the (acyclic) bulk of each trial's garbage immediately.
    """
    out = []
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(trials):
            start = time.perf_counter()
            fn()
            out.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return out


def _bench_dse(app, platforms, trials: int, n_jobs: int) -> Dict:
    """Time the full application DSE; trial 0 is cold (cache cleared),
    later trials run against the warm model cache.

    Cache accounting reads from an obs :class:`MetricsRegistry` bound to
    the model cache for the duration of the trials — the same counters a
    ``repro obs`` run exports — rather than scraping the cache's internal
    ints; the emitted ``cache`` keys stay schema-compatible with
    SCHEMA_VERSION 1 documents.
    """
    from ..obs.metrics import MetricsRegistry

    clear_model_cache()
    registry = MetricsRegistry()
    model_cache.bind_metrics(registry)
    try:
        trial_s: List[float] = []
        spaces = None
        for i in range(trials):
            start = time.perf_counter()
            spaces = app.explore(platforms, n_jobs=n_jobs)
            trial_s.append(time.perf_counter() - start)
        hits = int(registry.value("model_cache_hits_total"))
        misses = int(registry.value("model_cache_misses_total"))
        merges = int(registry.value("model_cache_merges_total"))
    finally:
        model_cache.bind_metrics(None)
    total = hits + misses
    assert spaces is not None
    points = sum(len(s) for s in spaces.values())
    pareto_points = sum(len(s.pareto()) for s in spaces.values())
    pruned_invalid = sum(
        getattr(s, "pruned_invalid", 0) for s in spaces.values()
    )
    return {
        "trial_s": trial_s,
        "median_s": statistics.median(trial_s),
        "cold_s": trial_s[0],
        "warm_median_s": (
            statistics.median(trial_s[1:]) if len(trial_s) > 1 else None
        ),
        "spaces": len(spaces),
        "points": points,
        "pareto_points": pareto_points,
        "pruned_invalid": pruned_invalid,
        "cache": {
            "hits": hits,
            "misses": misses,
            "merges": merges,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        },
    }


def _bench_scheduler(app, system, spaces, trials: int) -> Dict:
    """Time the two-step schedule of one request on an idle node."""
    devices = [
        DeviceSlot(device_id, spec.name, spec.device_type)
        for device_id, spec in system.device_inventory()
    ]
    scheduler = PolyScheduler(spaces, app.qos_ms)
    n_swaps = 0

    def one() -> None:
        nonlocal n_swaps
        _, swaps = scheduler.schedule(app.graph, devices)
        n_swaps = len(swaps)

    trial_s = _timed_trials(one, trials)
    return {
        "trial_s": trial_s,
        "median_s": statistics.median(trial_s),
        "swaps": n_swaps,
    }


def _bench_simulation(
    app, system, spaces, trials: int, rps: float, duration_ms: float, seed: int
) -> Dict:
    """Time a fixed seeded Poisson-stream replay."""
    arrivals = runtime.poisson_arrivals(
        rps, duration_ms, rng=np.random.default_rng(seed)
    )
    p99 = float("nan")

    def one() -> None:
        nonlocal p99
        result = runtime.run_simulation(system, app, spaces, arrivals, seed=seed)
        p99 = result.p99_ms

    trial_s = _timed_trials(one, trials)
    return {
        "trial_s": trial_s,
        "median_s": statistics.median(trial_s),
        "requests": len(arrivals),
        "p99_ms": round(p99, 3),
    }


#: (requests/sec, stream duration ms) per sim/obs-bench load level.
_SIM_LOADS = {"low": (60.0, 6_000.0), "high": (400.0, 10_000.0)}


def _bench_sim(app, system, spaces, trials: int, seed: int) -> Dict:
    """Event-heap engine throughput at a low and a high request rate.

    Replays one seeded Poisson stream per load level through
    ``run_simulation``: the first run (``event_cold_s``) also fills the
    process-wide dispatch-code cache, the next ``trials`` runs are the
    warm steady state.
    """
    loads: Dict = {}
    for load_key, (rps, duration_ms) in _SIM_LOADS.items():
        arrivals = runtime.poisson_arrivals(
            rps, duration_ms, rng=np.random.default_rng(seed)
        )
        p99 = float("nan")

        def one() -> None:
            nonlocal p99
            p99 = runtime.run_simulation(
                system, app, spaces, arrivals, seed=seed
            ).p99_ms

        event_cold_s = _timed_trials(one, 1)[0]
        event_warm_s = _timed_trials(one, trials)
        event_warm = statistics.median(event_warm_s)
        n = len(arrivals)
        loads[load_key] = {
            "rps": rps,
            "duration_ms": duration_ms,
            "requests": n,
            "event_cold_s": event_cold_s,
            "event_warm_trial_s": event_warm_s,
            "event_warm_median_s": event_warm,
            "event_req_per_s": n / event_warm,
            "p99_ms": round(p99, 3),
        }

    high = loads["high"]
    return {
        # Generic-gate keys (median_s / cold_s) describe the event
        # engine at high load — the steady state the CI baseline tracks.
        "trial_s": [high["event_cold_s"]] + high["event_warm_trial_s"],
        "median_s": high["event_warm_median_s"],
        "cold_s": high["event_cold_s"],
        "loads": loads,
    }


#: Head-sampling policy exercised per load level to document the
#: artifact-bounding ratio (tail criteria keep QoS violators).
_OBS_SAMPLE_RATE = 0.1


def _bench_obs(app, system, spaces, trials: int, seed: int) -> Dict:
    """Tracing overhead of the event engine.

    Per load level (the sim-bench levels) it replays the same seeded
    stream traced and untraced, back-to-back per trial; ``overhead`` is
    the traced / untraced median.  Event-stream construction stays
    inside the timed window (buffered raw records);
    :class:`~repro.obs.tracer.TraceEvent` materialization is lazy and
    happens at export, so it is excluded.  The level's stream is
    head+tail sampled at ``_OBS_SAMPLE_RATE`` to document the
    bounded-artifact ratio.
    """
    from ..obs.sampling import SamplingPolicy, sample_events
    from ..obs.tracer import SpanTracer

    loads: Dict = {}
    for load_key, (rps, duration_ms) in _SIM_LOADS.items():
        arrivals = runtime.poisson_arrivals(
            rps, duration_ms, rng=np.random.default_rng(seed)
        )
        tracers: List[SpanTracer] = []

        def run(traced: bool = True) -> None:
            tracer = SpanTracer() if traced else None
            runtime.run_simulation(
                system, app, spaces, arrivals, seed=seed, tracer=tracer
            )
            if tracer is not None and not tracers:
                tracers.append(tracer)

        event_cold_s = _timed_trials(run, 1)[0]
        event_s: List[float] = []
        untraced_s: List[float] = []
        for _ in range(trials):
            event_s += _timed_trials(run, 1)
            untraced_s += _timed_trials(lambda: run(traced=False), 1)

        event_median = statistics.median(event_s)
        untraced_median = statistics.median(untraced_s)
        events = tracers[0].events
        sampled = sample_events(
            events,
            SamplingPolicy(
                head_rate=_OBS_SAMPLE_RATE, seed=seed, tail_qos_ms=app.qos_ms
            ),
        )
        loads[load_key] = {
            "rps": rps,
            "duration_ms": duration_ms,
            "requests": len(arrivals),
            "events": len(events),
            "event_cold_s": event_cold_s,
            "event_trial_s": event_s,
            "event_median_s": event_median,
            "untraced_trial_s": untraced_s,
            "untraced_median_s": untraced_median,
            "overhead": round(event_median / untraced_median, 4),
            "sampling": {
                "head_rate": _OBS_SAMPLE_RATE,
                "kept_events": len(sampled.events),
                "total_events": len(events),
                "kept_requests": len(sampled.kept_requests),
                "dropped_spans": sampled.dropped_spans,
            },
        }

    high = loads["high"]
    return {
        # Generic-gate keys (median_s / cold_s) describe the traced
        # event engine at high load — the steady state the CI baseline
        # tracks.
        "trial_s": [high["event_cold_s"]] + high["event_trial_s"],
        "median_s": high["event_median_s"],
        "cold_s": high["event_cold_s"],
        "overhead": high["overhead"],
        "loads": loads,
    }


#: Mini diurnal utilization profile for the cluster bench: one
#: compressed rise-peak-fall swing that forces the autoscaler through a
#: full scale-up *and* scale-down episode per trial.
_CLUSTER_PROFILE = (0.15, 0.3, 0.6, 0.9, 0.95, 0.7, 0.4, 0.15, 0.1, 0.1)
_CLUSTER_INTERVAL_S = 9.0
#: Offered peak load as a multiple of one node's sustained capacity
#: (>1 so a single node cannot absorb the peak).
_CLUSTER_PEAK_FACTOR = 2.5


def _bench_cluster(app, system, spaces, trials: int, seed: int) -> Dict:
    """Time one fleet replay of the mini diurnal profile.

    Each trial drives a fresh :class:`~repro.cluster.ClusterSimulation`
    (an instance runs once) over the same seeded arrival stream, so
    every trial reproduces the identical routing/scaling decisions and
    wall-clock is the only variable.  The emitted section carries the
    fleet-level quality metrics the baseline gate and trend tooling
    track: served throughput, fleet p99, QoS-interval fraction, and the
    scale-up/scale-down lags (``None`` when the replay had no such
    episode — absent episodes are not zero-lag episodes).
    """
    from ..cluster import AutoscalerConfig, ClusterSimulation
    from ..runtime.trace import UtilizationTrace

    trace = UtilizationTrace(
        _CLUSTER_PROFILE, _CLUSTER_INTERVAL_S, name="bench-mini-diurnal"
    )
    config = AutoscalerConfig(min_nodes=1, max_nodes=6)

    def build():
        return ClusterSimulation(
            system, app, spaces, config=config, seed=seed
        )

    peak_rps = build()._template_capacity(system) * _CLUSTER_PEAK_FACTOR
    result = None

    def one() -> None:
        nonlocal result
        result = build().replay(trace, peak_rps=peak_rps)

    trial_s = _timed_trials(one, trials)
    assert result is not None
    up_lag = result.scale_up_lag_ms
    down_lag = result.scale_down_lag_ms
    return {
        "trial_s": trial_s,
        "median_s": statistics.median(trial_s),
        "cold_s": trial_s[0],
        "requests": len(result.requests),
        "peak_rps": round(peak_rps, 3),
        "served_rps": round(result.served_rps, 3),
        "p99_ms": round(result.p99_ms, 3),
        "qos_ok_frac": round(result.qos_ok_frac(), 4),
        "mean_fleet": round(result.mean_fleet_size, 4),
        "launches": result.launches,
        "terminations": result.terminations,
        "scale_up_lag_ms": (
            round(up_lag, 3) if result.scale_up_lags_ms else None
        ),
        "scale_down_lag_ms": (
            round(down_lag, 3) if result.scale_down_lags_ms else None
        ),
        "cost_efficiency": round(result.cost_efficiency(), 6),
    }


#: Synthetic knob-space enlargement for the dse-search bench: a denser
#: frequency ladder plus extra work-group sizes.  Both knobs exist on
#: every device family, so the override multiplies each per-device
#: space — 10x on the GPU (freq 4->20, wg 4->8) and ~27x on the FPGA
#: (freq 3->20, wg 2->8) — without inventing knobs the models ignore.
_DSE_SEARCH_OVERRIDES = {
    "freq_scale": tuple(
        round(float(v), 4) for v in np.linspace(0.3, 1.0, 20)
    ),
    "work_group_size": (32, 64, 96, 128, 192, 256, 384, 512),
}

#: Evaluation budget the guided explorer gets on the enlarged space.
_DSE_SEARCH_MAX_EVALS = 512


def _bench_dse_search(app, platforms, trials: int, n_jobs: int, seed: int) -> Dict:
    """Guided (successive-halving + genetic) DSE vs. exhaustive enumeration.

    Two questions, answered on two spaces:

    * **Exactness** — on the app's real (un-enlarged) knob space the
      guided explorer gets an unbounded budget, which makes every
      (kernel, platform) run exhaustive-equivalent; its Pareto front
      must equal the exhaustive front point-for-point
      (``front_identical``, the golden A/B contract of
      ``tests/test_search.py``).
    * **Efficiency** — on the :data:`_DSE_SEARCH_OVERRIDES`-enlarged
      space (>=10x per device) the budgeted explorer must recover
      >=99% of the exhaustive hypervolume with a fraction of the model
      evaluations.  Each trial times exhaustive and guided
      back-to-back from a cold model cache, so the gated ``speedup``
      is a median of per-pair ratios, robust to machine-speed drift;
      requested-evaluation counts come from the cache's own counters
      (hits + misses == evaluations the strategy asked for).

    Hypervolume ratios share one reference per (kernel, platform) —
    1.05x the exhaustive space's worst corner — so guided fronts are
    scored against the ground-truth frame, not their own.  The
    enlarged-space runs use ``validate=False``: per-config lint over a
    ~30x space measures the linter, not the search.
    """
    from ..optim.dse import explore_application
    from ..optim.search import SearchConfig, space_hypervolume

    def explore(strategy, search=None, overrides=None):
        return explore_application(
            app.kernels, platforms, n_jobs=n_jobs, strategy=strategy,
            search=search, candidate_overrides=overrides,
        )

    def front_key(space):
        return [
            (p.config, p.latency_ms, p.power_w) for p in space.pareto()
        ]

    # Exactness on the real space: unbounded budget -> exhaustive-
    # equivalent guided runs, fronts must match exactly.
    clear_model_cache()
    exact_exhaustive = explore("exhaustive")
    full_budget = SearchConfig(max_evals=10**9, seed=seed)
    exact_guided = explore("guided", search=full_budget)
    front_identical = all(
        front_key(exact_exhaustive[key]) == front_key(exact_guided[key])
        for key in exact_exhaustive
    )

    # Efficiency on the enlarged space: paired cold-vs-cold trials.
    search = SearchConfig(max_evals=_DSE_SEARCH_MAX_EVALS, seed=seed)
    exhaustive_s: List[float] = []
    guided_s: List[float] = []
    exhaustive_spaces = guided_spaces = None
    exhaustive_evals = 0
    for _ in range(trials):
        clear_model_cache()
        start = time.perf_counter()
        exhaustive_spaces = explore(
            "exhaustive", overrides=_DSE_SEARCH_OVERRIDES
        )
        exhaustive_s.append(time.perf_counter() - start)
        exhaustive_evals = model_cache.hits + model_cache.misses
        clear_model_cache()
        start = time.perf_counter()
        guided_spaces = explore(
            "guided", search=search, overrides=_DSE_SEARCH_OVERRIDES
        )
        guided_s.append(time.perf_counter() - start)
    assert exhaustive_spaces is not None and guided_spaces is not None

    guided_evals = sum(
        s.search_stats.evaluations for s in guided_spaces.values()
    )
    explored = sum(
        s.search_stats.explored for s in guided_spaces.values()
    )
    ratios = []
    for key, ex_space in exhaustive_spaces.items():
        reference = (
            1.05 * max(p.latency_ms for p in ex_space),
            1.05 * max(p.power_w for p in ex_space),
        )
        hv_exhaustive = space_hypervolume(ex_space, reference)
        hv_guided = space_hypervolume(guided_spaces[key], reference)
        ratios.append(hv_guided / hv_exhaustive if hv_exhaustive else 1.0)

    pair_speedups = [ex / g for ex, g in zip(exhaustive_s, guided_s)]
    return {
        "trial_s": guided_s,
        "median_s": statistics.median(guided_s),
        "cold_s": guided_s[0],
        "exhaustive_trial_s": exhaustive_s,
        "exhaustive_median_s": statistics.median(exhaustive_s),
        "pair_speedups": pair_speedups,
        "speedup": statistics.median(pair_speedups),
        "explored": explored,
        "exhaustive_evaluations": exhaustive_evals,
        "guided_evaluations": guided_evals,
        "eval_ratio": (
            round(exhaustive_evals / guided_evals, 4) if guided_evals else None
        ),
        "hypervolume_ratio": round(min(ratios), 6),
        "hypervolume_ratio_mean": round(
            sum(ratios) / len(ratios), 6
        ),
        "front_identical": front_identical,
        "max_evals": _DSE_SEARCH_MAX_EVALS,
        "seed": seed,
    }


#: Section sets per bench suite.
_SUITES = ("full", "sim", "cluster", "obs", "dse")


def run_bench(
    app_names: Optional[Sequence[str]] = None,
    setting: str = "I",
    system_name: str = "Heter-Poly",
    trials: int = 3,
    n_jobs: int = 1,
    rps: float = 20.0,
    duration_ms: float = 2_000.0,
    seed: int = 0,
    label: str = "local",
    suite: str = "full",
) -> Dict:
    """Run the harness; returns the BENCH document as a dict.

    ``suite`` selects the sections: ``"full"`` runs DSE + scheduler +
    simulation + sim + cluster + obs + dse-search (everything),
    ``"sim"`` runs only the event-engine throughput benchmark,
    ``"cluster"`` runs only the fleet replay benchmark, ``"obs"`` runs
    only the tracing-overhead benchmark, and ``"dse"`` runs only the
    guided-vs-exhaustive search benchmark (paired timing, eval counts,
    hypervolume ratio).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {_SUITES}")
    names = [n.upper() for n in (app_names or sorted(apps_mod.APP_BUILDERS))]
    unknown = [n for n in names if n not in apps_mod.APP_BUILDERS]
    if unknown:
        raise KeyError(
            f"unknown app(s) {unknown}; choose from {sorted(apps_mod.APP_BUILDERS)}"
        )
    system = runtime.setting(setting, system_name)
    doc: Dict = {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "setting": setting,
        "system": system_name,
        "trials": trials,
        "n_jobs": n_jobs,
        "suite": suite,
        "calibration_s": calibrate(),
        "apps": {},
    }
    for name in names:
        app = apps_mod.build(name)
        row: Dict = {}
        if suite == "full":
            row["dse"] = _bench_dse(app, system.platforms, trials, n_jobs)
        spaces = app.explore(system.platforms)  # warm: cache hits only
        if suite == "full":
            row["scheduler"] = _bench_scheduler(app, system, spaces, trials)
            row["simulation"] = _bench_simulation(
                app, system, spaces, trials, rps, duration_ms, seed
            )
        if suite in ("full", "sim"):
            row["sim"] = _bench_sim(app, system, spaces, trials, seed)
        if suite in ("full", "cluster"):
            row["cluster"] = _bench_cluster(app, system, spaces, trials, seed)
        if suite in ("full", "obs"):
            row["obs"] = _bench_obs(app, system, spaces, trials, seed)
        if suite in ("full", "dse"):
            row["dse_search"] = _bench_dse_search(
                app, system.platforms, trials, n_jobs, seed
            )
        doc["apps"][name] = row
    return doc


def default_output_path(label: str, directory: str = ".") -> Path:
    """The conventional ``BENCH_<label>.json`` location."""
    return Path(directory) / f"BENCH_{label}.json"


def write_bench_json(doc: Dict, path) -> Path:
    """Serialize one BENCH document (stable key order, trailing newline)."""
    out = Path(path)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return out


def render_bench(doc: Dict) -> str:
    """Human-readable summary of one BENCH document."""
    lines = [
        f"bench '{doc['label']}' on {doc['system']}/Setting-{doc['setting']} "
        f"({doc['trials']} trial(s), n_jobs={doc['n_jobs']}, "
        f"calibration {doc['calibration_s']*1000:.0f} ms)"
    ]
    for name, row in doc["apps"].items():
        if "dse" in row:
            dse, sched, sim = row["dse"], row["scheduler"], row["simulation"]
            warm = dse["warm_median_s"]
            warm_txt = f"{warm*1000:8.1f}" if warm is not None else "     n/a"
            lines.append(
                f"  {name:4s} dse {dse['cold_s']*1000:8.1f} ms cold /{warm_txt} ms warm "
                f"({dse['points']} pts, cache {dse['cache']['hit_rate']*100:.0f}% hits)  "
                f"sched {sched['median_s']*1000:7.2f} ms  "
                f"sim {sim['median_s']*1000:8.1f} ms (p99 {sim['p99_ms']:.1f} ms)"
            )
        if "sim" in row:
            s = row["sim"]
            high = s["loads"]["high"]
            lines.append(
                f"  {name:4s} sim      {s['cold_s']*1000:8.1f} ms event cold / "
                f"{s['median_s']*1000:8.1f} ms event warm "
                f"({high['requests']} reqs, "
                f"{high['event_req_per_s']:,.0f} req/s)"
            )
        if "cluster" in row:
            c = row["cluster"]
            up = c["scale_up_lag_ms"]
            down = c["scale_down_lag_ms"]
            lines.append(
                f"  {name:4s} cluster {c['median_s']*1000:8.1f} ms "
                f"({c['requests']} reqs @ {c['served_rps']:.1f} rps, "
                f"p99 {c['p99_ms']:.1f} ms, fleet {c['mean_fleet']:.1f}, "
                f"qos-ok {c['qos_ok_frac']*100:.0f}%, "
                f"lag up {f'{up:.0f} ms' if up is not None else 'n/a'} / "
                f"down {f'{down:.0f} ms' if down is not None else 'n/a'})"
            )
        if "obs" in row:
            o = row["obs"]
            high = o["loads"]["high"]
            samp = high["sampling"]
            lines.append(
                f"  {name:4s} obs     {high['untraced_median_s']*1000:8.1f} ms untraced / "
                f"{o['median_s']*1000:8.1f} ms traced event "
                f"({o['overhead']:.2f}x overhead, "
                f"{high['events']:,} events, "
                f"sampled {samp['kept_events']:,})"
            )
        if "dse_search" in row:
            d = row["dse_search"]
            lines.append(
                f"  {name:4s} dse-srch {d['exhaustive_median_s']*1000:8.1f} ms exhaustive / "
                f"{d['median_s']*1000:8.1f} ms guided "
                f"({d['speedup']:.2f}x, evals {d['exhaustive_evaluations']} vs "
                f"{d['guided_evaluations']} ({d['eval_ratio']:.1f}x), "
                f"hv {d['hypervolume_ratio']:.4f}, "
                f"front_identical={d['front_identical']})"
            )
    return "\n".join(lines)
