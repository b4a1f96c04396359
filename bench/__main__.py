"""``python -m bench``: run the benchmark and print its metrics.

    python -m bench --workload fig_sweep --seed 0 --seconds 22 --trace 0
    python -m bench --seed 0            # all four workloads in turn
    python -m bench --trace --seed 0    # per-layer table instead

Every workload runs in fresh subprocesses (``bench.worker``).  With
tracing off, two processes only set up and one sets up and then measures;
``setup_s`` is the median of the three set-ups.  With tracing on, one
process runs each op untraced and traced and reports per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run whose outputs
fail a check still prints its result, with ``"correct": false``; a run
that cannot produce one exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from . import ROOT, WORKLOAD_NAMES, layers

#: End-to-end metrics: (name, unit, what it is).  Times are in
#: reference seconds (see :mod:`bench.calibration`).
END_TO_END = (
    ("setup_s", "s", "median set-up of 3 fresh processes (import, apps, DSE, warm-up op)"),
    ("work_per_s", "1/s", "design configs or simulated requests per second"),
    ("op_s_p50", "s", "time of one op, mean over the 40th-60th percentiles"),
    ("op_s_p90", "s", "time of one op, mean over the 85th-95th percentiles"),
    ("peak_rss_mb", "MB", "peak resident memory of the measuring process"),
)

#: What one unit of ``work_per_s`` is, per workload.
WORK_UNIT = {
    "dse_sweep": "design configs covered",
    "fig_sweep": "simulated requests",
    "chaos_obs": "simulated requests",
    "fleet_diurnal": "simulated requests",
}

#: Wall-clock budget of one workload run, all its processes included.
RUN_BUDGET_S = 175.0


class BenchError(RuntimeError):
    """A worker process failed to produce a result."""


def _worker(mode: str, workload: str, seed: int, seconds: int, deadline: float) -> Dict[str, Any]:
    cmd = [
        sys.executable, "-m", "bench.worker", mode, workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{mode} {workload}: out of time")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} {workload}: timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} {workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_untraced(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [_worker("setup", workload, seed, seconds, deadline) for _ in range(2)]
    run = _worker("measure", workload, seed, seconds, deadline)
    setups.append(run)
    run["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    run["raw"]["setup_s"] = statistics.median(s["setup_host_s"] for s in setups)
    run["setup_samples"] = [s["setup_s"] for s in setups]
    run["reference_ok"] = all(s["reference_ok"] for s in setups)
    return run


def run_traced(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    return _worker("trace", workload, seed, seconds, time.monotonic() + RUN_BUDGET_S)


def result_line(run: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The JSON object the benchmark prints last."""
    if trace:
        specs = [(name, unit) for name, unit, _ in layers.per_layer_metrics()]
        correct = run["self_time_ok"]
    else:
        specs = [(name, unit) for name, unit, _ in END_TO_END]
        correct = True
    correct = (
        correct
        and run["failed"] == 0
        and run["reference_ok"]
        and run["run_error"] is None
    )
    return {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": run["metrics"][name], "unit": unit}
            for name, unit in specs
        },
    }


def render(workload: str, seed: int, run: Dict[str, Any], trace: bool) -> List[str]:
    """Human-readable report of one workload run."""
    lines = [f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}"]
    if trace:
        lines.append(
            f"  {run['passes']} pass(es) of {run['attempted'] // run['passes']} ops; "
            f"calibration slice {run['slice_s'] * 1000:.2f} ms; "
            f"op time {run['traced_s']:.3f} s traced / {run['untraced_s']:.3f} s "
            f"untraced; self times sum to {run['self_total_s']:.3f} s "
            f"({'ok' if run['self_time_ok'] else 'MISMATCH'})"
        )
        lines.append(f"  {'stage':22s} {'self_s/pass':>12s} {'calls/pass':>11s} {'share':>7s}")
        m = run["metrics"]
        for stage in sorted(layers.STAGE_NAMES, key=lambda s: -m[f"{s}.share"]):
            status = ""
            if stage in run["missing"]:
                status = "  missing"
            elif stage in run["silent"]:
                status = "  silent (expected to fire)"
            lines.append(
                f"  {stage:22s} {m[stage + '.self_s']:12.4f} "
                f"{m[stage + '.calls']:11.0f} {m[stage + '.share']:7.1%}{status}"
            )
        for name, unit, _ in layers.COUNTERS:
            lines.append(f"  {name:34s} {m[name]:.6g} {unit}")
        lines.append(
            f"  spans: {run['spans_file']} ({run['dropped_spans']} not kept)"
        )
    else:
        lines.append(
            f"  {run['ops']} ops in {run['timed_s']:.2f} s of op time; "
            f"set-ups {', '.join(f'{s:.3f}' for s in run['setup_samples'])} s"
        )
        lines.append(
            f"  {'metric':12s} {'value':>14s} {'unit':4s} {'host value':>14s}"
        )
        for name, unit, what in END_TO_END:
            raw = run["raw"].get(name, run["metrics"][name])
            lines.append(
                f"  {name:12s} {run['metrics'][name]:14.6g} {unit:4s} {raw:14.6g}  {what}"
            )
        lines.append(f"  work unit: {WORK_UNIT[workload]}")
        lines.append(
            f"  calibration slice {run['slice_s'] * 1000:.2f} ms (median); values "
            "are in reference seconds (10 ms slices), host values unscaled"
        )
    for name, value in sorted(run["sim"].items()):
        lines.append(f"  simulated {name:18s} {value:.6g}")
    lines.append(
        f"  ops attempted {run['attempted']}, failed {run['failed']}, "
        f"reference op {'ok' if run['reference_ok'] else 'FAILED'}"
        + (f"; run check failed: {run['run_error']}" if run["run_error"] else "")
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=22, help="length of the measured phase")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): report per-layer metrics",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    trace = bool(args.trace)
    for workload in workloads:
        try:
            if trace:
                run = run_traced(workload, args.seed, args.seconds)
            else:
                run = run_untraced(workload, args.seed, args.seconds)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print("\n".join(render(workload, args.seed, run, trace)))
        print(json.dumps(result_line(run, trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
