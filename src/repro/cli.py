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

``simulate APP RPS [--setting I] [--system Heter-Poly] [--ms 10000]``
    Serve a Poisson stream and report tail latency / power.

``codegen APP KERNEL [--fpga] [--unroll N] ...``
    Emit the optimized OpenCL source of one kernel implementation.

``lint [--app NAME] [--json] [--dse] [--setting I]``
    Run the static diagnostics engine over the bundled benchmarks
    (all six by default).  ``--dse`` additionally explores the design
    spaces of each app that lints clean and runs the scheduler's
    admission check against them.  Exits nonzero when any ERROR
    diagnostic fires.

``faults [--app ASR ...] [--rps 30] [--crash DEV@MS] [--recover DEV@MS]
        [--mtbf-ms N --mttr-ms N] [--seed 0] [--json]``
    Chaos experiment: serve a Poisson stream while injecting device
    faults (explicit ``--crash``/``--recover`` events, or a random
    MTBF/MTTR schedule) and report availability, tail latency, QoS
    violations and failover/recovery statistics.  The schedule is
    linted (RT004) before the run.

``cluster [--app ASR] [--system NAME ...] [--hours 24] [--compress 200]
        [--min-nodes 1] [--max-nodes 8] [--timeline] [--json]``
    Fleet replay: simulate a cluster of leaf nodes behind the
    power-of-two-choices dispatcher and the elastic autoscaler over a
    synthesized diurnal utilization trace, and report fleet tail
    latency, QoS-interval fraction, the scaling timeline, scale-up/down
    lag, fleet power and monthly TCO / cost efficiency.  Repeat
    ``--system`` to rotate launches through heterogeneous node
    templates.  Autoscaler flags the fleet cannot converge under exit 1
    before any DSE runs; RT007 and OBS002 warnings print before the
    replay, and a replay stream with no arrival exits 2.

``obs APP [--rps 20] [--ms 4000] [--seed 0] [--out-dir obs_out]
        [--summary] [--crash DEV@MS] [--recover DEV@MS]``
    Traced simulation: serve a seeded Poisson stream with the span
    tracer and metrics registry attached, and write four artifacts to
    ``--out-dir``: ``trace.perfetto.json`` (open at ui.perfetto.dev —
    per-device timeline tracks), ``events.jsonl`` (the typed event
    stream), ``metrics.json`` and ``metrics.prom``.  Artifacts are
    byte-identical across runs of the same seed.  ``--summary`` prints
    a placement/occupancy digest; ``--crash``/``--recover`` injects
    faults so the trace shows detection, failover and replanning.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import apps as apps_mod
from . import experiments, runtime
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
    devices = [
        DeviceSlot(device_id, spec.name, spec.device_type)
        for device_id, spec in system.device_inventory()
    ]
    scheduler = PolyScheduler(spaces, app.qos_ms)
    schedule, swaps = scheduler.schedule(app.graph, devices)
    print(schedule.gantt())
    for swap in swaps:
        print(f"  {swap!r}")
    return 0


def _arrivals(args, rps_flag: str = "--rps", rng=None):
    """The run's Poisson arrivals, built before any DSE: ``None`` after
    one stderr line when ``args.rps`` over ``--ms`` yields no arrival."""
    arrivals = runtime.poisson_arrivals(args.rps, args.ms, rng=rng)
    if not arrivals:
        print(
            f"{rps_flag} {args.rps:g} over --ms {args.ms:g} yields no "
            f"arrival; raise {rps_flag} or --ms",
            file=sys.stderr,
        )
        return None
    return arrivals


def _cmd_simulate(args) -> int:
    app = apps_mod.build(args.app)
    system = runtime.setting(args.setting, args.system)
    arrivals = _arrivals(args, rps_flag="RPS")
    if arrivals is None:
        return 2
    spaces = app.explore(system.platforms)
    result = runtime.run_simulation(system, app, spaces, arrivals)
    print(result)
    print(f"  p99        : {result.p99_ms:.1f} ms (bound {app.qos_ms:.0f} ms)")
    print(f"  mean       : {result.mean_latency_ms:.1f} ms")
    print(f"  avg power  : {result.avg_power_w:.1f} W")
    print(f"  violations : {result.qos_violations(app.qos_ms)*100:.2f} %")
    return 0


def _cmd_codegen(args) -> int:
    app = apps_mod.build(args.app)
    if args.kernel not in app.graph:
        print(
            f"unknown kernel {args.kernel!r}; app has {app.kernel_names}",
            file=sys.stderr,
        )
        return 2
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
        print(f"bad codegen knob: {exc}", file=sys.stderr)
        return 2
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
        devices = [
            DeviceSlot(device_id, spec.name, spec.device_type)
            for device_id, spec in system.device_inventory()
        ]
        scheduler = PolyScheduler(spaces, app.qos_ms)
        report.extend(scheduler.admission_check(app.graph, devices))
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


def _device_events(args, system):
    """The ``--crash``/``--recover`` events, or ``None`` after one
    stderr line when an event names a device ``system`` lacks."""
    from .faults.events import FaultEvent, FaultKind

    known = [device_id for device_id, _ in system.device_inventory()]
    events = []
    for flag, kind, specs in (
        ("--crash", FaultKind.DEVICE_CRASH, args.crash),
        ("--recover", FaultKind.RECOVERY, args.recover),
    ):
        for device, at_ms in specs or ():
            if device not in known:
                print(
                    f"{flag}: unknown device {device!r}; {args.system} "
                    f"on Setting-{args.setting} has {known}",
                    file=sys.stderr,
                )
                return None
            events.append(FaultEvent(at_ms, kind, device))
    return events


def _build_fault_schedule(args, system):
    from .faults import FaultSchedule

    events = _device_events(args, system)
    if events is None:
        return None
    if args.mtbf_ms is not None:
        if events:
            print(
                "--mtbf-ms cannot be combined with --crash/--recover",
                file=sys.stderr,
            )
            return None
        device_ids = [device_id for device_id, _ in system.device_inventory()]
        return FaultSchedule.from_mtbf(
            device_ids,
            duration_ms=args.ms,
            mtbf_ms=args.mtbf_ms,
            mttr_ms=args.mttr_ms,
            seed=args.seed,
        )
    if not events:
        print(
            "no faults given: use --crash/--recover or --mtbf-ms",
            file=sys.stderr,
        )
        return None
    return FaultSchedule(tuple(events))


def _cmd_faults(args) -> int:
    system = runtime.setting(args.setting, args.system)
    schedule = _build_fault_schedule(args, system)
    if schedule is None:
        return 2
    names = args.app or ["ASR"]
    arrivals = _arrivals(args)
    if arrivals is None:
        return 2
    rows = {}
    for name in names:
        app = apps_mod.build(name)
        spaces = app.explore(system.platforms)
        node = runtime.LeafNode(system, app, spaces)
        ctx = LintContext(
            design_spaces=spaces, devices=tuple(node.devices), qos_ms=app.qos_ms
        )
        gate = run_lint(schedule, ctx)
        for diag in gate:
            print(f"  {diag.render()}", file=sys.stderr)
        if not gate.ok:
            return 1
        result = runtime.run_simulation(
            system, app, spaces, arrivals, faults=schedule,
        )
        report = result.faults
        rows[name] = {
            "availability": result.availability,
            "p99_ms": result.p99_ms,
            "violations": result.qos_violations(app.qos_ms),
            "mean_recovery_ms": report.mean_recovery_ms,
            **{
                k: v
                for k, v in report.summary().items()
                if k != "mean_recovery_ms"
            },
        }
    if args.json:
        print(json.dumps({"setting": args.setting, "system": args.system,
                          "rps": args.rps, "apps": rows}, indent=2))
        return 0
    for name, row in rows.items():
        print(f"{name} on {args.system}/Setting-{args.setting} @ {args.rps:g} rps")
        print(f"  availability : {row['availability']*100:.2f} %")
        print(f"  p99          : {row['p99_ms']:.1f} ms")
        print(f"  violations   : {row['violations']*100:.2f} %")
        print(f"  recovery     : {row['mean_recovery_ms']:.1f} ms mean "
              f"({int(row['recoveries'])} episode(s))")
        print(f"  retries      : {int(row['retries'])} "
              f"({int(row['failovers'])} failovers)")
        print(f"  shed         : {int(row['shed'])}   "
              f"failed: {int(row['failed_requests'])}")
    return 0


def _cmd_obs(args) -> int:
    import pathlib

    import numpy as np

    from .obs import (
        MetricsRegistry,
        SamplingPolicy,
        SpanTracer,
        TimeSeriesStore,
        default_slos,
        evaluate_slos,
        feed_simulation_result,
        placement_digest,
        render_slo_json,
        sample_events,
        write_events_jsonl,
        write_metrics_json,
        write_metrics_prom,
        write_perfetto_json,
    )

    name = args.app
    system = runtime.setting(args.setting, args.system)
    app = apps_mod.build(name)

    faults = None
    if args.crash or args.recover:
        from .faults.events import FaultSchedule

        events = _device_events(args, system)
        if events is None:
            return 2
        faults = FaultSchedule(events)
    arrivals = _arrivals(args, rng=np.random.default_rng(args.seed))
    if arrivals is None:
        return 2

    tracer = SpanTracer()
    registry = MetricsRegistry()
    # The DSE reports its own counter (dse_design_points_total) through
    # the registry — identical for the exhaustive and guided paths.
    spaces = app.explore(system.platforms, metrics=registry)
    result = runtime.run_simulation(
        system,
        app,
        spaces,
        arrivals,
        seed=args.seed,
        faults=faults,
        tracer=tracer,
        metrics=registry,
    )

    store = slos = alerts = None
    if args.report:
        store = TimeSeriesStore(window_ms=args.window_ms)
        feed_simulation_result(store, result, qos_ms=app.qos_ms)
        slos = default_slos(app.qos_ms, store.window_ms)
        # Fired alerts land in the trace (slo.alert events) and the
        # registry before the artifacts serialize below.
        alerts = evaluate_slos(store, slos, tracer=tracer, registry=registry)

    policy = None
    if args.sample_rate < 1.0 or args.sample_top_k:
        policy = SamplingPolicy(
            head_rate=args.sample_rate,
            seed=args.sample_seed,
            tail_qos_ms=app.qos_ms,
            tail_top_k=args.sample_top_k,
        )
    sampled = (
        sample_events(tracer.events, policy, registry=registry)
        if policy is not None
        else None
    )

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [
        write_perfetto_json(tracer.events, out_dir / "trace.perfetto.json"),
        write_events_jsonl(tracer.events, out_dir / "events.jsonl"),
        write_metrics_json(registry, out_dir / "metrics.json"),
        write_metrics_prom(registry, out_dir / "metrics.prom"),
    ]
    if sampled is not None:
        paths.append(
            write_perfetto_json(
                sampled.events, out_dir / "trace.sampled.perfetto.json"
            )
        )
    if store is not None:
        report_path = out_dir / "report.json"
        report_path.write_text(render_slo_json(store, slos, alerts))
        paths.append(report_path)
    print(
        f"{name} on {args.system}/Setting-{args.setting} @ {args.rps:g} rps: "
        f"{len(tracer)} events, {len(registry)} metric series"
    )
    if sampled is not None:
        print(
            f"  sampled {len(sampled.events)} of {len(tracer)} events "
            f"({len(sampled.kept_requests)} request(s) kept, "
            f"{sampled.dropped_spans} span(s) dropped)"
        )
    for path in paths:
        print(f"  wrote {path}")
    if store is not None:
        print(_render_obs_report(store, slos, alerts))
    if args.summary:
        print(placement_digest(result, result.node))
    return 0


def _render_obs_report(store, slos, alerts) -> str:
    """The ``repro obs --report`` table: per-window rollups + alerts."""
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
    if args.trace:
        from .obs import SamplingPolicy, SpanTracer

        tracer = SpanTracer()
        if args.sample_rate < 1.0:
            sampler = SamplingPolicy(
                head_rate=args.sample_rate,
                seed=args.sample_seed,
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
        print(
            f"{exc}: raise --peak-rps (or --peak-factor) or --hours",
            file=sys.stderr,
        )
        return 2

    if tracer is not None:
        import pathlib

        from .obs import sample_events, write_events_jsonl, write_perfetto_json

        out_dir = pathlib.Path(args.trace_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_paths = [
            write_events_jsonl(tracer.events, out_dir / "events.jsonl")
        ]
        if sampler is not None:
            sampled = sample_events(tracer.events, sampler)
            trace_paths.append(
                write_perfetto_json(
                    sampled.events, out_dir / "trace.sampled.perfetto.json"
                )
            )
            print(
                f"  sampled {len(sampled.events)} of {len(tracer)} events",
                file=sys.stderr,
            )
        else:
            trace_paths.append(
                write_perfetto_json(
                    tracer.events, out_dir / "trace.perfetto.json"
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

    p = sub.add_parser("simulate", help="serve a Poisson request stream")
    p.add_argument("app", type=_app_name)
    p.add_argument("rps", type=_positive_float)
    p.add_argument("--setting", default="I", choices=("I", "II", "III"))
    p.add_argument(
        "--system",
        default="Heter-Poly",
        choices=("Homo-GPU", "Homo-FPGA", "Heter-Poly"),
    )
    p.add_argument("--ms", type=_positive_float, default=10_000.0)
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

    p = sub.add_parser("faults", help="fault-injection chaos experiment")
    p.add_argument(
        "--app",
        action="append",
        type=_app_name,
        help="benchmark short name (repeatable); ASR when omitted",
    )
    p.add_argument("--setting", default="I", choices=("I", "II", "III"))
    p.add_argument(
        "--system",
        default="Heter-Poly",
        choices=("Homo-GPU", "Homo-FPGA", "Heter-Poly"),
    )
    p.add_argument("--rps", type=_positive_float, default=30.0)
    p.add_argument("--ms", type=_positive_float, default=8_000.0)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument(
        "--crash",
        action="append",
        type=_parse_device_at,
        metavar="DEVICE@MS",
        help="fail a device at a time (repeatable), e.g. fpga0@4000",
    )
    p.add_argument(
        "--recover",
        action="append",
        type=_parse_device_at,
        metavar="DEVICE@MS",
        help="repair a device at a time (repeatable)",
    )
    p.add_argument(
        "--mtbf-ms",
        type=_positive_float,
        help="draw a random fault schedule with this mean time between failures",
    )
    p.add_argument(
        "--mttr-ms",
        type=_positive_float,
        default=1_000.0,
        help="mean time to repair for --mtbf-ms schedules",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_faults)

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
        choices=("Homo-GPU", "Homo-FPGA", "Heter-Poly"),
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
        "--trace",
        action="store_true",
        help="record the fleet event stream (cluster.* + autoscaler) and "
        "export JSONL/Perfetto artifacts",
    )
    p.add_argument(
        "--trace-nodes",
        action="store_true",
        help="with --trace: propagate the tracer into every leaf node "
        "(full per-request span trees; pair with --sample-rate)",
    )
    p.add_argument(
        "--sample-rate",
        type=_probability,
        default=1.0,
        help="with --trace: head-sampling keep probability for the "
        "Perfetto artifact (QoS violators always kept)",
    )
    p.add_argument(
        "--sample-seed",
        type=_non_negative_int,
        default=0,
        help="sampling-key seed",
    )
    p.add_argument(
        "--trace-out",
        default="cluster_obs",
        help="artifact directory for --trace (created if missing)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser(
        "obs", help="traced simulation with Perfetto/metrics artifacts"
    )
    p.add_argument("app", type=_app_name)
    p.add_argument("--setting", default="I", choices=("I", "II", "III"))
    p.add_argument(
        "--system",
        default="Heter-Poly",
        choices=("Homo-GPU", "Homo-FPGA", "Heter-Poly"),
    )
    p.add_argument("--rps", type=_positive_float, default=20.0)
    p.add_argument("--ms", type=_positive_float, default=4_000.0)
    p.add_argument(
        "--seed", type=_non_negative_int, default=0, help="arrival-stream seed"
    )
    p.add_argument(
        "--out-dir",
        default="obs_out",
        help="artifact directory (created if missing)",
    )
    p.add_argument(
        "--summary",
        action="store_true",
        help="print the placement/occupancy digest",
    )
    p.add_argument(
        "--report",
        action="store_true",
        help="windowed rollup table + SLO burn-rate alerts "
        "(also writes report.json)",
    )
    p.add_argument(
        "--window-ms",
        type=_positive_float,
        default=1_000.0,
        help="rollup window for --report (simulated ms)",
    )
    p.add_argument(
        "--sample-rate",
        type=_probability,
        default=1.0,
        help="head-sampling keep probability; < 1.0 adds a bounded "
        "trace.sampled.perfetto.json (QoS violators always kept)",
    )
    p.add_argument(
        "--sample-seed",
        type=_non_negative_int,
        default=0,
        help="sampling-key seed",
    )
    p.add_argument(
        "--sample-top-k",
        type=_non_negative_int,
        default=0,
        help="always keep the k highest-latency request spans",
    )
    p.add_argument(
        "--crash",
        action="append",
        type=_parse_device_at,
        metavar="DEVICE@MS",
        help="fail a device at a time (repeatable), e.g. fpga0@2000",
    )
    p.add_argument(
        "--recover",
        action="append",
        type=_parse_device_at,
        metavar="DEVICE@MS",
        help="repair a device at a time (repeatable)",
    )
    p.set_defaults(fn=_cmd_obs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.fn(args)
        # Flush inside the guard: buffered output otherwise hits a
        # closed pipe only at interpreter exit, outside any handler.
        sys.stdout.flush()
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
