"""Per-layer wall-clock tracing, installed from outside the program.

Each stage names the public functions of one layer.  :func:`installed`
resolves every target by dotted path, replaces it with a wrapper that
records a span around the call, and restores the original afterwards.
Nothing under ``src/`` knows about this: the wrappers are the only
instrumentation, and a traced op runs the same code as an untraced one.

A target that no longer exists (a later refactor deleted or renamed it)
is reported as missing and its stage reads zero instead of failing the
run.  Spans record name, start, end, parent span and op index; a
stage's self time is its span's duration minus the time its child
spans cover, so the self times of all stages (the op's own root span
included) add up to the op total.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The root span every traced op runs in; its self time is the part of
#: the op no wrapped layer accounts for (the benchmark's own glue).
ROOT = "bench.op"

#: stage -> wrapped targets, each ``"module:attribute.path"``.
STAGES: Dict[str, Tuple[str, ...]] = {
    "optim.explore": ("repro.optim.dse:explore_application",),
    "optim.enumerate": ("repro.optim.dse:enumerate_configs",),
    "optim.guided": ("repro.optim.search:explore_kernel_guided",),
    "hardware.model_eval": (
        "repro.hardware.model_cache:ModelEvalCache.evaluate_many",
    ),
    "runtime.simulate": ("repro.runtime.simulation:run_simulation",),
    "runtime.node_init": ("repro.runtime.node:LeafNode.__init__",),
    "runtime.replan": ("repro.runtime.node:LeafNode.maybe_replan",),
    "scheduler.schedule": (
        "repro.scheduler.scheduler:PolyScheduler.schedule",
        "repro.scheduler.scheduler:StaticScheduler.schedule",
    ),
    "runtime.engine": (
        "repro.runtime.engine:EventHeapEngine.run",
        "repro.runtime.engine:EventHeapEngine.process",
        "repro.runtime.engine:EventHeapEngine.finalize",
    ),
    "runtime.submit": ("repro.runtime.node:LeafNode.submit",),
    "faults.advance": ("repro.faults.injector:FaultInjector.advance",),
    "faults.failover": (
        "repro.faults.failover:FailoverPlanner.confirm_failure",
        "repro.faults.failover:FailoverPlanner.on_recovery",
    ),
    # The power timeline is bound under one name in each simulator.
    "runtime.power": (
        "repro.runtime.simulation:_power_timeline",
        "repro.cluster.simulation:_power_timeline",
    ),
    "obs.emit": ("repro.obs.summary:emit_execution_spans",),
    "obs.rollup": ("repro.obs.timeseries:feed_simulation_result",),
    "obs.slo": ("repro.obs.slo:evaluate_slos",),
    "obs.sample": ("repro.obs.sampling:sample_events",),
    "obs.export": (
        "repro.obs.export:write_events_jsonl",
        "repro.obs.export:write_perfetto_json",
    ),
    "cluster.replay": ("repro.cluster.simulation:ClusterSimulation.run",),
    "cluster.route": ("repro.cluster.dispatcher:ClusterDispatcher.route",),
    "cluster.autoscale": ("repro.cluster.scaling:Autoscaler.evaluate",),
}

#: Every stage reported, root included.
STAGE_NAMES: Tuple[str, ...] = tuple(STAGES) + (ROOT,)

#: Spans kept in memory per run; later ones are counted, not kept.
MAX_SPANS = 100_000

#: Stages each workload should exercise.  A stage that stays silent is
#: printed as a warning, not counted as a failure: a refactor may
#: legitimately stop calling a function (the delegated fault path is
#: meant to go away), and the benchmark must not reject it for that.
EXPECTED_STAGES: Dict[str, Tuple[str, ...]] = {
    "dse_sweep": (
        "optim.explore", "optim.enumerate", "optim.guided",
        "hardware.model_eval",
    ),
    "fig_sweep": (
        "runtime.simulate", "runtime.node_init", "runtime.replan",
        "scheduler.schedule", "runtime.engine", "runtime.power",
    ),
    "chaos_obs": (
        "runtime.simulate", "runtime.node_init", "runtime.replan",
        "scheduler.schedule", "runtime.engine", "runtime.submit",
        "faults.advance", "faults.failover", "runtime.power",
        "obs.emit", "obs.rollup", "obs.slo", "obs.sample", "obs.export",
    ),
    "fleet_diurnal": (
        "cluster.replay", "cluster.route", "cluster.autoscale",
        "runtime.node_init", "runtime.replan", "runtime.engine",
        "runtime.power",
    ),
}

#: Counters reported beside the stage times: (name, unit, better).
#: They are simulation outputs, exact for a given seed.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("hardware.model_cache.evals", "count", "lower"),
    ("hardware.model_cache.hit_ratio", "ratio", "higher"),
    ("runtime.requests", "count", "higher"),
    ("faults.failovers", "count", "lower"),
    ("faults.retries", "count", "lower"),
    ("faults.failed_requests", "count", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.kept_ratio", "ratio", "lower"),
    ("obs.export_mb", "MB", "lower"),
    ("cluster.launches", "count", "lower"),
    ("cluster.mean_fleet", "nodes", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    out = []
    for stage in STAGE_NAMES:
        out.append((f"{stage}.self_s", "s", "lower"))
        out.append((f"{stage}.calls", "count", "lower"))
        out.append((f"{stage}.share", "ratio", "lower"))
    out.extend(COUNTERS)
    return out


class Recorder:
    """In-memory span stack with per-stage self time and call counts.

    Single-threaded by design: the benchmark issues ops from one thread
    and the program runs them with ``n_jobs=1``.  Calls into a wrapped
    function while no op is open (set-up, output checks) are not
    recorded.  ``clock`` exists so tests can drive the arithmetic with a
    fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: (span id, parent id, op index, name, start, end)
        self.spans: List[Tuple[int, Optional[int], int, str, float, float]] = []
        self.dropped_spans = 0
        self.op = -1
        self._stack: List[list] = []
        self._next_id = 0

    def push(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, self._next_id])
        self._next_id += 1

    def pop(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, self.op, name, start, end))
        else:
            self.dropped_spans += 1
        return duration

    def write_spans(self, path: Path) -> Path:
        """Write the kept spans as JSONL, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: (s[4], s[0]))
        t0 = ordered[0][4] if ordered else 0.0
        with path.open("w") as f:
            for span_id, parent, op, name, start, end in ordered:
                f.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start_s": start - t0,
                            "end_s": end - t0,
                        }
                    )
                    + "\n"
                )
        return path


def _wrap(fn: Callable, stage: str, rec: Recorder) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec._stack:
            return fn(*args, **kwargs)
        rec.push(stage)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.pop()

    return traced


_ABSENT = object()


def resolve(target: str) -> Optional[Tuple[object, str]]:
    """``(owner, attribute)`` for a ``"module:attr.path"`` target, or
    ``None`` when the module or any attribute on the path is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


@contextlib.contextmanager
def installed(
    rec: Recorder, stages: Optional[Dict[str, Sequence[str]]] = None
) -> Iterator[List[str]]:
    """Wrap every resolvable target for the duration of the block.

    Yields the stages none of whose targets resolved.  Originals are
    restored on exit, including on error.
    """
    stages = STAGES if stages is None else stages
    saved: List[Tuple[object, str, object]] = []
    missing: List[str] = []
    try:
        for stage, targets in stages.items():
            found = False
            for target in targets:
                hit = resolve(target)
                if hit is None:
                    continue
                owner, attr = hit
                saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
                setattr(owner, attr, _wrap(getattr(owner, attr), stage, rec))
                found = True
            if not found:
                missing.append(stage)
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def stage_metrics(
    rec: Recorder, op_total_s: float, passes: int, scale: float = 1.0
) -> Dict[str, float]:
    """``<stage>.{self_s,calls,share}`` per pass of the op list; self
    times are multiplied by ``scale`` (host to reference seconds)."""
    out: Dict[str, float] = {}
    for stage in STAGE_NAMES:
        self_s = rec.self_s.get(stage, 0.0)
        out[f"{stage}.self_s"] = self_s * scale / passes
        out[f"{stage}.calls"] = rec.calls.get(stage, 0) / passes
        out[f"{stage}.share"] = self_s / op_total_s if op_total_s > 0 else 0.0
    return out
