"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figure NAME``
    Regenerate one paper table/figure (``fig01`` … ``fig14``,
    ``table2``) and print its text rendering.

``dse APP [--setting I] [--strategy exhaustive|guided] [--budget N]
        [--search-seed 0]``
    Run the offline DSE for one benchmark and print each kernel's
    design-space summary and Pareto extremes.  ``--strategy guided``
    runs the budgeted successive-halving + genetic explorer
    (``--budget`` model evaluations per kernel/device, seeded by
    ``--search-seed``) and reports explored/evaluated/skipped counts
    per space.

``schedule APP [--setting I]``
    Print the two-step runtime schedule (Fig.-6 style) for one request
    of a benchmark on an idle Heter-Poly node.

``simulate APP [--setting I] [--system Heter-Poly] [--rps 30] [--ms 10000]
        [--seed 0] [FAULTS] [--out-dir DIR ...] [--summary | --json]``
    Serve a seeded Poisson stream on one leaf node and report tail
    latency, power and QoS violations.  ``--seed`` seeds the arrivals,
    the node and the ``--mtbf-ms`` draw.  Faults (``--crash``/
    ``--recover`` events, or an ``--mtbf-ms``/``--mttr-ms`` schedule),
    linted by RT004 before the run, add availability and
    failover/recovery statistics.  ``--out-dir`` attaches the span
    tracer and metrics registry and writes ``trace.perfetto.json``
    (per-device timeline tracks for ui.perfetto.dev), ``events.jsonl``,
    ``metrics.json`` and ``metrics.prom`` there, byte-identical across
    runs of the same seed; ``--report`` adds the windowed SLO table and
    ``report.json``, and ``--sample-*`` a bounded
    ``trace.sampled.perfetto.json``.  A flag that would have no effect
    is refused.

``codegen APP KERNEL [--fpga] [--unroll N] ...``
    Emit the optimized OpenCL source of one kernel implementation.

``lint [--app NAME] [--json] [--dse] [--setting I]``
    Run the static diagnostics engine over the bundled benchmarks
    (all six by default).  ``--dse`` additionally explores the design
    spaces of each app that lints clean and runs the scheduler's
    admission check against them.  Exits nonzero when any ERROR
    diagnostic fires.

``cluster [--app ASR] [--system NAME ...] [--hours 24] [--compress 200]
        [--min-nodes 1] [--max-nodes 8] [--trace-out DIR ...] [--timeline]
        [--json]``
    Fleet replay: simulate a cluster of leaf nodes behind the
    power-of-two-choices dispatcher and the elastic autoscaler over a
    synthesized diurnal utilization trace, and report fleet tail
    latency, QoS-interval fraction, the scaling timeline, scale-up/down
    lag, fleet power and monthly TCO / cost efficiency.  Repeat
    ``--system`` to rotate launches through heterogeneous node
    templates.  ``--trace-out`` traces the replay and writes
    ``events.jsonl`` and a Perfetto trace there (``--trace-nodes`` adds
    every node's spans, ``--sample-rate`` samples the Perfetto trace);
    a tracing flag without it is refused.  Autoscaler flags the fleet
    cannot converge under exit 1 before any DSE runs; RT007 and OBS002
    warnings print before the replay, and a replay stream with no
    arrival exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
from typing import List

import numpy as np

from . import apps as apps_mod
from . import experiments, obs, runtime
from .codegen import generate_host_snippet, generate_kernel_source
from .hardware import ImplConfig
from .hardware.specs import DeviceType
from .lint import LintContext, LintReport, run_lint
from .scheduler import DeviceSlot, PolyScheduler

_FIGURES = {
    name: getattr(experiments, name)
    for name in (
        "fig01", "fig06", "table2", "fig07", "fig08", "fig09",
        "fig10", "fig11", "fig12", "fig13", "fig14", "faults",
    )
}


class _Refusal(Exception):
    """A flag value or combination a command refuses before its DSE:
    ``main`` prints the message as one stderr line and exits 2."""


def _device_slots(system) -> List[DeviceSlot]:
    """One idle slot per device of ``system``: the pool the scheduler,
    its admission check and the fault-schedule gate see."""
    return [
        DeviceSlot(device_id, spec.name, spec.device_type)
        for device_id, spec in system.device_inventory()
    ]


def _artifact_dir(path: str, flag: str) -> pathlib.Path:
    """Create an artifact directory before any DSE runs."""
    out_dir = pathlib.Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Refusal(
            f"{flag}: cannot create directory {path!r} ({exc.strerror})"
        ) from None
    return out_dir


def _cmd_figure(args) -> int:
    module = _FIGURES[args.name]
    data = module.run()
    print(module.render(data))
    return 0


def _cmd_dse(args) -> int:
    app = apps_mod.build(args.app)
    system = runtime.setting(args.setting, "Heter-Poly")
    search = None
    if args.strategy == "guided":
        from .optim import SearchConfig

        search = SearchConfig(max_evals=args.budget, seed=args.search_seed)
    spaces = app.explore(system.platforms, strategy=args.strategy, search=search)
    print(f"{app} on Setting-{args.setting} ({args.strategy})")
    for kernel in app.kernels:
        for spec in system.platforms:
            space = spaces[(kernel.name, spec.name)]
            s = space.summary()
            line = (
                f"  {kernel.name:22s} {spec.device_type.value.upper():4s} "
                f"{len(space):4d} pts ({int(s['pareto_points'])} Pareto)  "
                f"lat [{s['latency_min_ms']:8.1f}, {s['latency_max_ms']:9.1f}] ms  "
                f"power [{s['power_min_w']:5.1f}, {s['power_max_w']:6.1f}] W"
            )
            stats = space.search_stats
            if stats is not None:
                line += (
                    f"  [guided: {stats.evaluations}/{stats.explored} evals"
                    + (", exhaustive-equivalent" if stats.exhaustive_equivalent
                       else f", {stats.generations} gen(s)")
                    + "]"
                )
            print(line)
    return 0


def _cmd_schedule(args) -> int:
    app = apps_mod.build(args.app)
    system = runtime.setting(args.setting, "Heter-Poly")
    spaces = app.explore(system.platforms)
    scheduler = PolyScheduler(spaces, app.qos_ms)
    schedule, swaps = scheduler.schedule(app.graph, _device_slots(system))
    print(schedule.gantt())
    for swap in swaps:
        print(f"  {swap!r}")
    return 0


def _cmd_codegen(args) -> int:
    app = apps_mod.build(args.app)
    if args.kernel not in app.graph:
        raise _Refusal(f"unknown kernel {args.kernel!r}; app has {app.kernel_names}")
    kernel = app.graph.kernel(args.kernel)
    device_type = DeviceType.FPGA if args.fpga else DeviceType.GPU
    try:
        config = ImplConfig(
            work_group_size=args.wg,
            unroll=args.unroll,
            compute_units=args.cu,
            bram_ports=args.ports,
            use_scratchpad=args.scratchpad,
            memory_coalescing=args.coalesce,
            pipelined=args.pipeline,
            double_buffer=args.double_buffer,
            fused=args.fused,
        )
    except ValueError as exc:
        raise _Refusal(f"bad codegen knob: {exc}") from None
    print(generate_kernel_source(kernel, config, device_type))
    print()
    print(generate_host_snippet(kernel, config, device_type))
    return 0


def _lint_one_app(name: str, setting: str, dse: bool) -> LintReport:
    """Lint one bundled app; with ``dse`` also validate its design
    spaces and the scheduler admission on an idle node, when the app
    itself lints clean (the DSE assumes what the rules check)."""
    app = apps_mod.build(name)
    system = runtime.setting(setting, "Heter-Poly")
    report = run_lint(app, LintContext(specs=tuple(system.platforms)))
    if dse and report.ok:
        spaces = app.explore(system.platforms)
        scheduler = PolyScheduler(spaces, app.qos_ms)
        report.extend(scheduler.admission_check(app.graph, _device_slots(system)))
    return report


def _cmd_lint(args) -> int:
    reports = {}
    for name in args.app or sorted(apps_mod.APP_BUILDERS):
        reports[name] = _lint_one_app(name, args.setting, args.dse)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": all(r.ok for r in reports.values()),
                    "apps": {
                        name: json.loads(r.to_json()) for name, r in reports.items()
                    },
                },
                indent=2,
            )
        )
    else:
        for name, report in reports.items():
            status = "OK" if report.ok else "FAIL"
            print(
                f"{name:4s} [{status}] {len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s), {len(report)} diagnostic(s)"
            )
            for diag in report:
                print(f"  {diag.render()}")
    return 0 if all(r.ok for r in reports.values()) else 1


def _checked(convert, ok, requirement: str):
    """An argparse ``type=`` that converts a flag value with ``convert``
    and refuses one failing ``ok`` (``requirement`` says what holds)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {text!r}"
            ) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text!r}"
            )
        return value

    return parse


_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "positive")
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_non_negative_int = _checked(int, lambda v: v >= 0, "non-negative")
_positive_int = _checked(int, lambda v: v >= 1, "positive")


def _app_name(text: str) -> str:
    """An argparse ``type=`` for a bundled app's short name, in any
    case; returns the registered (upper-case) name."""
    name = text.upper()
    if name not in apps_mod.APP_BUILDERS:
        raise argparse.ArgumentTypeError(
            f"unknown app {name!r}; choose from {sorted(apps_mod.APP_BUILDERS)}"
        )
    return name


def _parse_device_at(text: str):
    """Parse a ``DEVICE@MS`` event spec (e.g. ``fpga0@4000``)."""
    device, sep, at = text.partition("@")
    if not sep or not device:
        raise argparse.ArgumentTypeError(
            f"expected DEVICE@MS (e.g. fpga0@4000), got {text!r}"
        )
    try:
        at_ms = float(at)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad timestamp in {text!r}; expected DEVICE@MS"
        ) from None
    if not 0.0 <= at_ms < math.inf:
        raise argparse.ArgumentTypeError(
            f"time in {text!r} must be a non-negative number of ms"
        )
    return device, at_ms


def _fault_schedule(args, system):
    """The run's fault schedule, or ``None`` for a fault-free run: the
    ``--crash``/``--recover`` events, or an ``--mtbf-ms`` draw over
    every device seeded by ``--seed``."""
    from .faults import FaultSchedule
    from .faults.events import FaultEvent, FaultKind

    known = [device_id for device_id, _ in system.device_inventory()]
    events = []
    for flag, kind, specs in (
        ("--crash", FaultKind.DEVICE_CRASH, args.crash),
        ("--recover", FaultKind.RECOVERY, args.recover),
    ):
        for device, at_ms in specs or ():
            if device not in known:
                raise _Refusal(
                    f"{flag}: unknown device {device!r}; {args.system} "
                    f"on Setting-{args.setting} has {known}"
                )
            events.append(FaultEvent(at_ms, kind, device))
    if args.mtbf_ms is None:
        return FaultSchedule(events) if events else None
    if events:
        raise _Refusal("--mtbf-ms cannot be combined with --crash/--recover")
    return FaultSchedule.from_mtbf(
        known,
        duration_ms=args.ms,
        mtbf_ms=args.mtbf_ms,
        mttr_ms=args.mttr_ms or 1_000.0,
        seed=args.seed,
    )


def _refuse_idle_flags(pairs) -> None:
    """Refuse a flag the run would ignore: each ``(flag, value, needed,
    present)`` names a flag and the one it needs; ``None`` is unset."""
    for flag, value, needed, present in pairs:
        if value is not None and present is None:
            raise _Refusal(f"{flag} has no effect without {needed}")


def _cmd_simulate(args) -> int:
    _refuse_idle_flags((
        ("--mttr-ms", args.mttr_ms, "--mtbf-ms", args.mtbf_ms),
        ("--window-ms", args.window_ms, "--report", args.report),
        ("--sample-seed", args.sample_seed, "--sample-rate", args.sample_rate),
        ("--report", args.report, "--out-dir", args.out_dir),
        ("--sample-rate", args.sample_rate, "--out-dir", args.out_dir),
        ("--sample-top-k", args.sample_top_k, "--out-dir", args.out_dir),
    ))
    system = runtime.setting(args.setting, args.system)
    faults = _fault_schedule(args, system)
    arrivals = runtime.poisson_arrivals(
        args.rps, args.ms, rng=np.random.default_rng(args.seed)
    )
    if not arrivals:
        raise _Refusal(
            f"--rps {args.rps:g} over --ms {args.ms:g} yields no arrival; "
            "raise --rps or --ms"
        )
    out_dir = tracer = registry = None
    if args.out_dir is not None:
        out_dir = _artifact_dir(args.out_dir, "--out-dir")
        tracer, registry = obs.SpanTracer(), obs.MetricsRegistry()
    app = apps_mod.build(args.app)
    # With --out-dir the DSE reports its own counter
    # (dse_design_points_total) through the registry.
    spaces = app.explore(system.platforms, metrics=registry)
    if faults is not None:
        ctx = LintContext(
            design_spaces=spaces,
            devices=tuple(_device_slots(system)),
            qos_ms=app.qos_ms,
        )
        gate = run_lint(faults, ctx)
        for diag in gate:
            print(f"  {diag.render()}", file=sys.stderr)
        if not gate.ok:
            return 1
    result = runtime.run_simulation(
        system, app, spaces, arrivals, seed=args.seed, faults=faults,
        tracer=tracer, metrics=registry,
    )
    report = None
    if out_dir is not None:
        report = _write_artifacts(args, app, result, tracer, registry, out_dir)

    row = {
        "availability": result.availability,
        "p99_ms": result.p99_ms,
        "violations": result.qos_violations(app.qos_ms),
    }
    if result.faults is not None:
        # The recovery mean leads the counters: the --json key order is
        # what scripts and the golden command digests read.
        summary = result.faults.summary()
        row["mean_recovery_ms"] = summary.pop("mean_recovery_ms")
        row.update(summary)
    if args.json:
        print(json.dumps({"setting": args.setting, "system": args.system,
                          "rps": args.rps, "apps": {app.name: row}}, indent=2))
        return 0
    print(result)
    print(f"  p99        : {result.p99_ms:.1f} ms (bound {app.qos_ms:.0f} ms)")
    print(f"  mean       : {result.mean_latency_ms:.1f} ms")
    print(f"  avg power  : {result.avg_power_w:.1f} W")
    print(f"  violations : {row['violations']*100:.2f} %")
    if result.faults is not None:
        print(f"  available  : {row['availability']*100:.2f} %")
        print(f"  recovery   : {row['mean_recovery_ms']:.1f} ms mean "
              f"({int(row['recoveries'])} episode(s))")
        print(f"  retries    : {int(row['retries'])} "
              f"({int(row['failovers'])} failovers)")
        print(f"  shed       : {int(row['shed'])}   "
              f"failed: {int(row['failed_requests'])}")
    if report is not None:
        print(_render_report(*report))
    if args.summary:
        print(obs.placement_digest(result, result.node))
    return 0


def _write_artifacts(args, app, result, tracer, registry, out_dir):
    """Write a traced run's artifacts to ``out_dir``, naming each on
    stderr; returns the ``--report`` rollups ``(store, slos, alerts)``,
    or ``None``."""
    report = None
    if args.report:
        store = obs.TimeSeriesStore(window_ms=args.window_ms or 1_000.0)
        obs.feed_simulation_result(store, result, qos_ms=app.qos_ms)
        slos = obs.default_slos(app.qos_ms, store.window_ms)
        # Fired alerts land in the trace (slo.alert events) and the
        # registry before the artifacts serialize below.
        alerts = obs.evaluate_slos(store, slos, tracer=tracer, registry=registry)
        report = (store, slos, alerts)
    rate = 1.0 if args.sample_rate is None else args.sample_rate
    sampled = None
    if rate < 1.0 or args.sample_top_k:
        policy = obs.SamplingPolicy(
            head_rate=rate, seed=args.sample_seed or 0,
            tail_qos_ms=app.qos_ms, tail_top_k=args.sample_top_k or 0,
        )
        sampled = obs.sample_events(tracer.events, policy, registry=registry)

    paths = [
        obs.write_perfetto_json(tracer.events, out_dir / "trace.perfetto.json"),
        obs.write_events_jsonl(tracer.events, out_dir / "events.jsonl"),
        obs.write_metrics_json(registry, out_dir / "metrics.json"),
        obs.write_metrics_prom(registry, out_dir / "metrics.prom"),
    ]
    if sampled is not None:
        paths.append(obs.write_perfetto_json(
            sampled.events, out_dir / "trace.sampled.perfetto.json"
        ))
    if report is not None:
        path = out_dir / "report.json"
        path.write_text(obs.render_slo_json(*report))
        paths.append(path)
    print(
        f"  traced {len(tracer)} events, {len(registry)} metric series",
        file=sys.stderr,
    )
    if sampled is not None:
        print(
            f"  sampled {len(sampled.events)} of {len(tracer)} events "
            f"({len(sampled.kept_requests)} request(s) kept, "
            f"{sampled.dropped_spans} span(s) dropped)",
            file=sys.stderr,
        )
    for path in paths:
        print(f"  wrote {path}", file=sys.stderr)
    return report


def _render_report(store, slos, alerts) -> str:
    """The ``repro simulate --report`` table: per-window rollups + alerts."""
    lines = [
        f"windowed rollups ({store.window_ms:g} ms windows)",
        "  window        n    p50 ms    p95 ms    p99 ms   qos-ok     W",
    ]
    latency = {w.start_ms: w for w in store.rollup("latency_ms")}
    qos = {w.start_ms: w for w in store.rollup("qos_attained")}
    power = {w.start_ms: w for w in store.rollup("power_w")}
    for start in sorted(latency):
        lw, qw, pw = latency[start], qos.get(start), power.get(start)
        qos_txt = f"{qw.mean * 100:6.1f}%" if qw else "    n/a"
        pow_txt = f"{pw.mean:6.0f}" if pw else "   n/a"
        lines.append(
            f"  {start / 1000.0:6.1f}s {lw.count:6d} "
            f"{lw.p50:9.1f} {lw.p95:9.1f} {lw.p99:9.1f} "
            f"{qos_txt} {pow_txt}"
        )
    for slo in slos:
        fired = [a for a in alerts if a.slo == slo.name]
        status = f"{len(fired)} alert(s)" if fired else "ok"
        lines.append(
            f"SLO {slo.name} (target {slo.objective * 100:g}% on "
            f"{slo.series}): {status}"
        )
        for a in fired:
            lines.append(
                f"  ALERT {a.t_ms / 1000.0:.1f}s..{a.end_ms / 1000.0:.1f}s "
                f"burn fast {a.burn_fast:.1f}x / slow {a.burn_slow:.1f}x "
                f"(budget {slo.budget * 100:g}%)"
            )
    return "\n".join(lines)


def _cmd_cluster(args) -> int:
    from .cluster import AutoscalerConfig, ClusterSimulation
    from .runtime.trace import synthesize_google_trace

    _refuse_idle_flags((
        ("--trace-nodes", args.trace_nodes or None, "--trace-out",
         args.trace_out),
        ("--sample-seed", args.sample_seed, "--sample-rate", args.sample_rate),
        ("--sample-rate", args.sample_rate, "--trace-out", args.trace_out),
    ))
    name = args.app
    try:
        config = AutoscalerConfig(
            min_nodes=args.min_nodes,
            max_nodes=args.max_nodes,
            eval_interval_ms=args.eval_ms,
            scale_up_utilization=args.up_util,
            scale_down_utilization=args.down_util,
            target_utilization=args.target_util,
            warmup_ms=args.warmup_ms,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1

    trace_dir = None
    if args.trace_out is not None:
        trace_dir = _artifact_dir(args.trace_out, "--trace-out")
    systems = args.system or ["Heter-Poly"]
    templates = [runtime.setting(args.setting, s) for s in systems]
    app = apps_mod.build(name)
    platforms = tuple(
        dict.fromkeys(p for t in templates for p in t.platforms)
    )
    spaces = app.explore(platforms)
    trace = synthesize_google_trace(
        hours=args.hours, interval_s=args.interval_s, seed=args.trace_seed
    )
    tracer = sampler = None
    if trace_dir is not None:
        tracer = obs.SpanTracer()
        if args.sample_rate is not None and args.sample_rate < 1.0:
            sampler = obs.SamplingPolicy(
                head_rate=args.sample_rate,
                seed=args.sample_seed or 0,
                tail_qos_ms=app.qos_ms,
            )
    sim = ClusterSimulation(
        templates, app, spaces, config=config, seed=args.seed,
        tracer=tracer, trace_nodes=args.trace_nodes, sampler=sampler,
    )
    # Warnings before the replay is paid for: RT007 (a long warm-up)
    # and OBS002 (a fleet-scale trace without a sampling policy).
    gate = run_lint(config, LintContext())
    gate.extend(run_lint(sim, LintContext()))
    for diag in gate:
        print(f"  {diag.render()}", file=sys.stderr)
    peak_rps = args.peak_rps
    if peak_rps is None:
        capacity = sum(sim._template_capacity(t) for t in templates) / len(
            templates
        )
        peak_rps = capacity * args.peak_factor
    try:
        result = sim.replay(trace, peak_rps=peak_rps, compress=args.compress)
    except ValueError as exc:  # the replay stream holds no arrival
        raise _Refusal(f"{exc}: raise --peak-rps (or --peak-factor) or --hours") from None

    if tracer is not None:
        trace_paths = [
            obs.write_events_jsonl(tracer.events, trace_dir / "events.jsonl")
        ]
        if sampler is not None:
            sampled = obs.sample_events(tracer.events, sampler)
            trace_paths.append(
                obs.write_perfetto_json(
                    sampled.events, trace_dir / "trace.sampled.perfetto.json"
                )
            )
            print(
                f"  sampled {len(sampled.events)} of {len(tracer)} events",
                file=sys.stderr,
            )
        else:
            trace_paths.append(
                obs.write_perfetto_json(
                    tracer.events, trace_dir / "trace.perfetto.json"
                )
            )
        for path in trace_paths:
            print(f"  wrote {path}", file=sys.stderr)

    served = sum(1 for r in result.requests if r.served)
    sizes = [e.fleet_size for e in result.timeline]
    up, down = result.scale_up_lags_ms, result.scale_down_lags_ms
    if args.json:
        print(
            json.dumps(
                {
                    "app": name,
                    "setting": args.setting,
                    "systems": systems,
                    "hours": args.hours,
                    "compress": args.compress,
                    "peak_rps": round(peak_rps, 3),
                    "requests": len(result.requests),
                    "served": served,
                    "served_rps": round(result.served_rps, 3),
                    "p50_ms": round(result.p50_ms, 3),
                    "p99_ms": round(result.p99_ms, 3),
                    "qos_ms": result.qos_ms,
                    "qos_ok_frac": round(result.qos_ok_frac(), 4),
                    "violation_ratio": round(result.violation_ratio, 4),
                    "mean_fleet": round(result.mean_fleet_size, 4),
                    "launches": result.launches,
                    "terminations": result.terminations,
                    "scale_up_lag_ms": round(result.scale_up_lag_ms, 3)
                    if up
                    else None,
                    "scale_down_lag_ms": round(result.scale_down_lag_ms, 3)
                    if down
                    else None,
                    "fleet_avg_power_w": round(result.fleet_avg_power_w, 3),
                    "monthly_tco_usd": round(result.monthly_tco_usd(), 2),
                    "cost_efficiency": round(result.cost_efficiency(), 6),
                    "timeline": [
                        {
                            "t_ms": e.t_ms,
                            "action": e.action,
                            "node": e.node_id,
                            "reason": e.reason,
                            "fleet_size": e.fleet_size,
                        }
                        for e in result.timeline
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(
        f"{name} fleet of {'+'.join(systems)} (Setting-{args.setting}), "
        f"{args.hours:g} h diurnal trace compressed {args.compress:g}x, "
        f"peak {peak_rps:.1f} rps"
    )
    print(
        f"  requests : {len(result.requests)} "
        f"({served / len(result.requests) * 100:.2f} % served, "
        f"{result.served_rps:.1f} rps)"
    )
    print(
        f"  latency  : p50 {result.p50_ms:.1f} ms  p99 {result.p99_ms:.1f} ms "
        f"(QoS {result.qos_ms:g} ms met in "
        f"{result.qos_ok_frac() * 100:.0f} % of intervals)"
    )
    print(
        f"  fleet    : {min(sizes)}..{max(sizes)} nodes "
        f"(mean {result.mean_fleet_size:.2f}), "
        f"{result.launches} launch(es), {result.terminations} termination(s)"
    )
    up_txt = f"{result.scale_up_lag_ms:.0f} ms" if up else "n/a"
    down_txt = f"{result.scale_down_lag_ms:.0f} ms" if down else "n/a"
    print(f"  lag      : scale-up {up_txt} / scale-down {down_txt}")
    print(
        f"  power    : {result.fleet_avg_power_w:.1f} W fleet average"
    )
    print(
        f"  cost     : {result.monthly_tco_usd():.2f} USD/month, "
        f"{result.cost_efficiency():.4f} rps/USD"
    )
    if args.timeline:
        print("  timeline :")
        for e in result.timeline:
            print(
                f"    t={e.t_ms / 1000.0:8.1f}s {e.action:9s} "
                f"{e.node_id:7s} {e.reason:15s} -> {e.fleet_size}"
            )
    return 0


_SYSTEMS = ("Homo-GPU", "Homo-FPGA", "Heter-Poly")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exits 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro", description="Poly (HPCA 2019) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure", help="regenerate a paper table/figure")
    p.add_argument("name", choices=sorted(_FIGURES), help="fig01..fig14 or table2")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("dse", help="offline design-space exploration")
    p.add_argument("app", type=_app_name)
    p.add_argument("--setting", default="I", choices=("I", "II", "III"))
    p.add_argument(
        "--strategy",
        default="exhaustive",
        choices=("exhaustive", "guided"),
        help="'guided' = budgeted successive-halving + genetic search",
    )
    p.add_argument(
        "--budget",
        type=_positive_int,
        default=512,
        help="guided-search model-evaluation budget per kernel/device",
    )
    p.add_argument(
        "--search-seed",
        type=int,
        default=0,
        help="guided-search RNG seed (same seed -> identical product)",
    )
    p.set_defaults(fn=_cmd_dse)

    p = sub.add_parser("schedule", help="two-step schedule of one request")
    p.add_argument("app", type=_app_name)
    p.add_argument("--setting", default="I", choices=("I", "II", "III"))
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("simulate", help="serve a Poisson stream on one node")
    p.add_argument("app", type=_app_name)
    p.add_argument("--setting", default="I", choices=("I", "II", "III"))
    p.add_argument("--system", default="Heter-Poly", choices=_SYSTEMS)
    p.add_argument("--rps", type=_positive_float, default=30.0)
    p.add_argument("--ms", type=_positive_float, default=10_000.0)
    p.add_argument(
        "--seed", type=_non_negative_int, default=0,
        help="seeds the arrivals, the node and the --mtbf-ms draw",
    )
    for flag, verb in (("--crash", "fail"), ("--recover", "repair")):
        p.add_argument(
            flag, action="append", type=_parse_device_at, metavar="DEVICE@MS",
            help=f"{verb} a device at a time (repeatable), e.g. fpga0@4000",
        )
    p.add_argument(
        "--mtbf-ms", type=_positive_float,
        help="draw a random fault schedule with this mean time between failures",
    )
    p.add_argument(
        "--mttr-ms", type=_positive_float,
        help="mean time to repair for --mtbf-ms schedules (default 1000)",
    )
    p.add_argument(
        "--out-dir",
        help="attach the tracer and metrics registry and write the run's "
        "artifacts here (created if missing)",
    )
    p.add_argument(
        "--report", action="store_true", default=None,
        help="windowed rollup table + SLO burn-rate alerts (also writes report.json)",
    )
    p.add_argument(
        "--window-ms", type=_positive_float,
        help="rollup window for --report (simulated ms; default 1000)",
    )
    p.add_argument(
        "--sample-rate", type=_probability,
        help="head-sampling keep probability; < 1.0 adds a bounded "
        "trace.sampled.perfetto.json (QoS violators always kept)",
    )
    p.add_argument(
        "--sample-seed", type=_non_negative_int, help="sampling-key seed (default 0)"
    )
    p.add_argument(
        "--sample-top-k", type=_non_negative_int,
        help="always keep the k highest-latency request spans",
    )
    output = p.add_mutually_exclusive_group()
    output.add_argument(
        "--summary", action="store_true", help="print the placement/occupancy digest"
    )
    output.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("codegen", help="emit optimized OpenCL source")
    p.add_argument("app", type=_app_name)
    p.add_argument("kernel")
    p.add_argument("--fpga", action="store_true")
    p.add_argument("--wg", type=int, default=64)
    p.add_argument("--unroll", type=int, default=1)
    p.add_argument("--cu", type=int, default=1)
    p.add_argument("--ports", type=int, default=1)
    p.add_argument("--scratchpad", action="store_true")
    p.add_argument("--coalesce", action="store_true")
    p.add_argument("--pipeline", action="store_true")
    p.add_argument("--double-buffer", action="store_true")
    p.add_argument("--fused", action="store_true")
    p.set_defaults(fn=_cmd_codegen)

    p = sub.add_parser("lint", help="static diagnostics over the bundled apps")
    p.add_argument(
        "--app",
        action="append",
        type=_app_name,
        help="benchmark short name (repeatable); all six when omitted",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--dse",
        action="store_true",
        help="also validate the DSE product and scheduler admission",
    )
    p.add_argument("--setting", default="I", choices=("I", "II", "III"))
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "cluster", help="fleet replay: dispatcher + autoscaler over a trace"
    )
    p.add_argument(
        "--app", type=_app_name, default="ASR", help="benchmark short name"
    )
    p.add_argument("--setting", default="I", choices=("I", "II", "III"))
    p.add_argument(
        "--system",
        action="append",
        choices=_SYSTEMS,
        help="node template (repeatable for a heterogeneous fleet); "
        "launches rotate through the given templates",
    )
    p.add_argument(
        "--hours", type=_positive_float, default=24.0, help="trace length"
    )
    p.add_argument(
        "--interval-s", type=_positive_float, default=300.0,
        help="trace interval",
    )
    p.add_argument(
        "--compress",
        type=_positive_float,
        default=200.0,
        help="time-compression factor for the replay "
        "(200 turns a 300 s trace interval into 1.5 s of simulated time)",
    )
    p.add_argument(
        "--peak-rps",
        type=_positive_float,
        default=None,
        help="offered load at 100%% trace utilization "
        "(default: --peak-factor x one node's capacity)",
    )
    p.add_argument(
        "--peak-factor",
        type=_positive_float,
        default=2.5,
        help="derive the peak load as this multiple of one node's capacity",
    )
    p.add_argument("--min-nodes", type=int, default=1)
    p.add_argument("--max-nodes", type=int, default=8)
    p.add_argument(
        "--eval-ms",
        type=float,
        default=1_000.0,
        help="autoscaler evaluation interval (simulated ms)",
    )
    p.add_argument(
        "--warmup-ms",
        type=float,
        default=2_000.0,
        help="launch-to-serving warm-up delay (simulated ms)",
    )
    p.add_argument("--up-util", type=float, default=0.85)
    p.add_argument("--down-util", type=float, default=0.30)
    p.add_argument("--target-util", type=float, default=0.60)
    p.add_argument(
        "--seed", type=_non_negative_int, default=0, help="cluster root seed"
    )
    p.add_argument(
        "--trace-seed",
        type=_non_negative_int,
        default=2011,
        help="trace-synthesis seed",
    )
    p.add_argument(
        "--timeline", action="store_true", help="print every scaling event"
    )
    p.add_argument(
        "--trace-out",
        metavar="DIR",
        help="trace the replay (cluster.* and autoscaler events) and "
        "write events.jsonl and a Perfetto trace to DIR (created if "
        "missing)",
    )
    p.add_argument(
        "--trace-nodes",
        action="store_true",
        help="with --trace-out: propagate the tracer into every leaf node "
        "(full per-request span trees; pair with --sample-rate)",
    )
    p.add_argument(
        "--sample-rate",
        type=_probability,
        help="with --trace-out: head-sampling keep probability for the "
        "Perfetto trace (QoS violators always kept)",
    )
    p.add_argument(
        "--sample-seed",
        type=_non_negative_int,
        help="with --sample-rate: sampling-key seed (default 0)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_cluster)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.fn(args)
        # Flush inside the guard: buffered output otherwise hits a
        # closed pipe only at interpreter exit, outside any handler.
        sys.stdout.flush()
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``repro lint --json | head``).  Point
        # stdout at devnull so the exit-time flush cannot raise again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
