"""One benchmark process: set a workload up, then run its ops.

``python -m bench.worker <mode> <workload> --seed N --seconds S`` prints
one JSON object as its last line of standard output.  Modes:

* ``setup``   — set up, run the untimed warm-up op, report set-up time;
* ``measure`` — set up, then issue whole passes of ops back to back for
  about S seconds, with tracing off;
* ``trace``   — set up, then run whole passes of the op cycle for about
  S seconds, each op once untraced and once traced (alternating which
  goes first);
* ``record``  — rewrite ``bench/expected.json`` from the default seed.

Each workload runs in fresh processes so no process history (heap
size, warm caches) leaks from one workload into the next.  Host times
are turned into reference seconds by :mod:`bench.calibration`.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import ROOT, WORKLOAD_NAMES, layers, use_checkout_src
from .calibration import REF_SLICE_S, Calibrator

EXPECTED_PATH = Path(__file__).with_name("expected.json")
TRACE_DIR = ROOT / "bench_trace"

#: Slices a process takes before and after its set-up, half each, to
#: scale its set-up time.
SETUP_SLICES = 10


def _verify(wl, seed: int, index: int, op, result) -> Dict[str, Any]:
    """Check one op's output; at the default seed also compare it with
    the recorded expectation.  Raises ``CheckError`` on a mismatch."""
    from .workloads import DEFAULT_SEED, CheckError

    summary = wl.check(op, result)
    recorded = wl.expected.get("ops", [])
    if seed == DEFAULT_SEED and index < len(recorded):
        if not wl.matches(summary, recorded[index]):
            raise CheckError(f"op {index}: output differs from expected.json")
    return summary


def _report_failure(what) -> None:
    print(f"bench: op {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _setup(name: str, start: float) -> Tuple[Any, float, bool]:
    """Import the program, build the workload and run the warm-up op:
    op 0 of the default seed, whose output is checked whatever seed the
    run uses.

    Returns the workload, the set-up time in host seconds from
    ``start``, and whether the warm-up op's output was right.
    """
    use_checkout_src()
    from . import workloads

    expected = json.loads(EXPECTED_PATH.read_text()).get(name, {})
    wl = workloads.WORKLOADS[name](expected)
    wl.setup()
    op = wl.make_input(workloads.DEFAULT_SEED, 0)
    result = wl.run(op)
    setup_s = time.perf_counter() - start
    reference_ok = True
    try:
        _verify(wl, workloads.DEFAULT_SEED, 0, op, result)
    except Exception:
        _report_failure("warm-up")
        reference_ok = False
    return wl, setup_s, reference_ok


def _run_check(wl, totals: Dict[str, float], cal: Calibrator) -> Optional[str]:
    """Why the run as a whole is not right, or ``None``."""
    from .workloads import CheckError

    if cal.contended():
        return (
            f"other threads used {cal.busy_during_slices_s:.3f} CPU s during "
            "calibration slices, so reference seconds would hide their cost"
        )
    try:
        wl.check_run(totals)
    except CheckError as exc:
        return str(exc)
    return None


def _passes(seconds: float) -> Iterator[int]:
    """Yield pass numbers 0, 1, ... and stop at the pass boundary
    nearest to ``seconds`` of wall time (after one pass at least).

    Runs stop only at pass boundaries, so every run times the same mix
    of ops whatever the machine's speed.
    """
    start = time.perf_counter()
    number = 0
    while True:
        yield number
        number += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / number >= seconds:
            return


def band_mean(values: List[float], lo: float, hi: float) -> float:
    """Mean of the empirical quantile function over ``[lo, hi]``.

    A smoothed percentile: the ops of one pass differ in kind, so their
    times form clusters, and a single order statistic jumps between
    clusters with small noise.  Averaging over a band of ranks does not.
    Being a function of the empirical distribution alone, it reads the
    same for k whole passes as for one.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    edges = np.arange(len(x) + 1) / len(x)
    weights = np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)
    return float(weights @ x / (hi - lo))


def run_ops(
    wl, seed: int, seconds: float, cal: Calibrator
) -> Tuple[List[Tuple[float, float]], Dict[str, float], int, int]:
    """Issue whole passes of the op cycle back to back, each pass with
    fresh inputs, for about ``seconds`` of wall time.

    Each op's input is generated and its output checked outside the
    op's own timer; the time budget covers both, so a run's length does
    not depend on how slow the checks are.  A calibration slice is
    taken before an op when none was taken in the last
    ``calibration.SLICE_EVERY_S``.  Returns (start, host seconds) of
    every op that passed its checks, their summed statistics, and the
    attempted and failed op counts.
    """
    from .workloads import add_summary

    op_times: List[Tuple[float, float]] = []
    totals: Dict[str, float] = {}
    attempted = failed = 0
    for number in _passes(seconds):
        for index in range(number * wl.pass_ops, (number + 1) * wl.pass_ops):
            cal.tick()
            op = wl.make_input(seed, index)
            attempted += 1
            try:
                t = time.perf_counter()
                result = wl.run(op)
                elapsed = time.perf_counter() - t
                summary = _verify(wl, seed, index, op, result)
            except Exception:
                failed += 1
                _report_failure(index)
            else:
                op_times.append((t, elapsed))
                add_summary(totals, summary)
    return op_times, totals, attempted, failed


def _time_metrics(op_s: List[float], work: float) -> Dict[str, float]:
    return {
        "work_per_s": work / sum(op_s),
        "op_s_p50": band_mean(op_s, 0.40, 0.60),
        "op_s_p90": band_mean(op_s, 0.85, 0.95),
    }


def measure(wl, seed: int, seconds: float, cal: Calibrator) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics over ``seconds`` of ops."""
    from .workloads import sim_metrics

    op_times, totals, attempted, failed = run_ops(wl, seed, seconds, cal)
    if not op_times:
        raise SystemExit("bench: every op failed")
    host_s = [d for _, d in op_times]
    ref_s = [cal.reference_s(t, d) for t, d in op_times]
    metrics = _time_metrics(ref_s, totals["work"])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": attempted,
        "failed": failed,
        "run_error": _run_check(wl, totals, cal),
        "ops": len(op_times),
        "timed_s": sum(host_s),
        "slice_s": cal.median_slice_s(),
        "raw": _time_metrics(host_s, totals["work"]),
        "metrics": metrics,
        "sim": sim_metrics(totals, len(op_times)),
    }


def _counters(totals: Dict[str, float], pass_ops: int, overhead: float) -> Dict[str, float]:
    def get(key: str) -> float:
        return float(totals.get(key, 0))

    evals, events = get("model_evals"), get("events")
    return {
        "hardware.model_cache.evals": evals,
        "hardware.model_cache.hit_ratio": get("model_hits") / evals if evals else 0.0,
        "runtime.requests": get("requests"),
        "faults.failovers": get("failovers"),
        "faults.retries": get("retries"),
        "faults.failed_requests": get("failed_requests"),
        "obs.events": events,
        "obs.kept_ratio": get("kept_events") / events if events else 0.0,
        "obs.export_mb": get("export_bytes") / 1e6,
        "cluster.launches": get("launches"),
        "cluster.mean_fleet": get("fleet_nodes_sum") / pass_ops,
        "bench.trace_overhead": overhead,
    }


def trace(wl, seed: int, seconds: float, cal: Calibrator) -> Dict[str, Any]:
    """Run the first pass of the op cycle, each op untraced and traced.

    Passes repeat with identical inputs for ``seconds``; stage times
    and counts are reported per pass, so the counts are exact.  The two
    runs of an op must produce equal summaries.
    """
    from .workloads import CheckError, add_summary, sim_metrics

    inputs = [wl.make_input(seed, i) for i in range(wl.pass_ops)]
    rec = layers.Recorder()
    totals: Dict[str, float] = {}
    missing: List[str] = []
    untraced_s = traced_s = 0.0
    attempted = failed = 0
    for number in _passes(seconds):
        for index, op in enumerate(inputs):
            cal.tick()
            attempted += 1
            order = (False, True) if (index + number) % 2 == 0 else (True, False)
            try:
                summaries = []
                for traced in order:
                    if traced:
                        with layers.installed(rec) as missing:
                            rec.op = index
                            rec.push(layers.ROOT)
                            try:
                                t = time.perf_counter()
                                result = wl.run(op)
                                traced_s += time.perf_counter() - t
                            finally:
                                rec.pop()
                    else:
                        t = time.perf_counter()
                        result = wl.run(op)
                        untraced_s += time.perf_counter() - t
                    summaries.append(_verify(wl, seed, index, op, result))
                if summaries[0] != summaries[1]:
                    raise CheckError(f"op {index}: traced and untraced outputs differ")
            except Exception:
                failed += 1
                _report_failure(index)
            else:
                if number == 0:
                    add_summary(totals, summaries[0])
    passes = number + 1

    self_total = sum(rec.self_s.values())
    scale = REF_SLICE_S / cal.median_slice_s()
    metrics = layers.stage_metrics(rec, self_total, passes, scale)
    metrics.update(_counters(totals, wl.pass_ops, traced_s / untraced_s))
    silent = [
        s for s in layers.EXPECTED_STAGES[wl.name]
        if s not in missing and not rec.calls.get(s)
    ]
    spans = rec.write_spans(TRACE_DIR / f"{wl.name}.spans.jsonl")
    return {
        "attempted": attempted,
        "failed": failed,
        "run_error": _run_check(wl, totals, cal),
        "passes": passes,
        "slice_s": cal.median_slice_s(),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "self_total_s": self_total,
        "self_time_ok": math.isclose(self_total, traced_s, rel_tol=0.01),
        "missing": missing,
        "silent": silent,
        "spans_file": str(spans.relative_to(ROOT)),
        "dropped_spans": rec.dropped_spans,
        "metrics": metrics,
        "sim": sim_metrics(totals, wl.pass_ops),
    }


def record() -> None:
    """Rewrite ``expected.json``: every op of the first pass at the
    default seed, plus the guided-DSE reference hypervolumes."""
    use_checkout_src()
    from . import workloads

    doc: Dict[str, Any] = {"seed": workloads.DEFAULT_SEED}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls({})
        wl.setup()
        try:
            if isinstance(wl, workloads.DseSweep):
                wl.expected["guided_reference"] = wl.guided_reference()
            ops = []
            for index in range(wl.pass_ops):
                op = wl.make_input(workloads.DEFAULT_SEED, index)
                ops.append(wl.expected_entry(wl.check(op, wl.run(op))))
            doc[name] = dict(wl.expected, ops=ops)
        finally:
            wl.close()
        print(f"recorded {name}: {len(ops)} ops", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("mode", choices=("setup", "measure", "trace", "record"))
    parser.add_argument("workload", nargs="?", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    args = parser.parse_args(argv)
    if args.mode == "record":
        record()
        return 0
    if args.workload is None:
        parser.error(f"mode {args.mode} needs a workload")
    cal = Calibrator()
    try:
        slices = [cal.take() for _ in range(SETUP_SLICES // 2)]
        wl, setup_host_s, reference_ok = _setup(args.workload, time.perf_counter())
        try:
            slices += [cal.take() for _ in range(SETUP_SLICES // 2)]
            out: Dict[str, Any] = {
                "setup_s": setup_host_s * REF_SLICE_S / statistics.median(slices),
                "setup_host_s": setup_host_s,
                "reference_ok": reference_ok,
            }
            if args.mode == "measure":
                out.update(measure(wl, args.seed, args.seconds, cal))
            elif args.mode == "trace":
                out.update(trace(wl, args.seed, args.seconds, cal))
        finally:
            wl.close()
    finally:
        cal.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
