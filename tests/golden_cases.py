"""Golden digests: short sha256 fingerprints of seeded simulation outputs.

The JSON files under ``tests/golden/`` pin what the simulator produces
for a fixed set of seeded runs, so behaviour stays fixed without a
second, slower implementation kept alive to compare against:

* ``sim_digests.json`` — one entry per application x Setting-I system x
  mode (fault-free, a crash-and-recover of the system's first device,
  traced, and a seeded MTBF/MTTR chaos schedule with transients,
  slowdowns and request priorities, untraced and traced), with
  separate digests of the request records, power bins, monitor state,
  device execution records, the resilience report (chaos modes) and
  the JSONL event stream (traced modes);
* ``fleet_digests.json`` — the fleet replays (arrival lists, and one
  utilization-trace replay through ``ClusterSimulation.replay``) and the
  traced fleet event streams (fault-free, and with a fault-injected
  node) of ``tests/test_engine.py`` and ``tests/test_obs_pipeline.py``;
* ``lint_digests.json`` — ``repro lint --dse --json`` over the six
  bundled apps at Settings I, II and III: every rule's verdict on them;
* ``model_digests.json`` — one entry per application x platform spec:
  the device model's ``estimate_batch`` feasibility, latency and power
  columns over every kernel's full knob space, at batch 1 and, on the
  GPUs, at every size in ``GPU_BATCHES``;
* ``dse_digests.json`` — the DSE's design spaces, every point in order
  (index, latency, power, config repr): per application x Setting
  I-III Heter-Poly platform set explored exhaustively, without and
  with the app's ``dse_targets()``, and per application searched on
  the ``ENLARGE``d Setting-I space at two seeds, with each search's
  counters; plus ASR's ``LSTM_acoustic`` under the ``OVERRIDE`` whose
  widest FPGA configs do not place, explored and searched;
* ``schedule_digests.json`` — one entry per application x Setting
  I-III x system: what the system's scheduler (``PolyScheduler`` or
  ``StaticScheduler``) decides for the app's graph on idle device slots
  and on slots queued to ``SCHEDULE_HORIZONS_MS``, every assignment
  (kernel, device, point index, start and end) and every Step-2 swap;
* ``cli_digests.json`` — one entry per ``CLI_CASES`` invocation of
  ``repro simulate``: the stdout of a plain or ``--json`` run, and
  every artifact file of a traced one.

The first two were recorded while the per-request reference loops still
existed, and matched them; ``model_digests.json`` was recorded while the
models' scalar ``estimate`` twins still existed, and matched them row by
row; ``dse_digests.json`` was recorded while the DSE still built every
config and design point twice; ``schedule_digests.json`` was recorded
while Step 1, Step-2 retiming and the static baseline still had a
list-scheduling loop each; ``cli_digests.json`` was recorded while
``repro simulate``, ``repro faults`` and ``repro obs`` were three
commands, and the one command reproduces it with the flags mapped.
Regenerate the files only for a change that is meant to move simulated
outputs, lint verdicts, model outputs, design spaces, schedules or
command outputs::

    PYTHONPATH=src python tests/golden_cases.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro import apps as apps_mod
from repro import runtime
from repro.cli import main
from repro.cluster import AutoscalerConfig, ClusterSimulation
from repro.experiments import harness
from repro.faults import FaultSchedule
from repro.hardware import FPGA_SPECS, GPU_SPECS, model_for
from repro.hardware.specs import DeviceType
from repro.obs import SpanTracer
from repro.obs.export import write_events_jsonl
from repro.optim import SearchConfig
from repro.optim.dse import KnobSpace, explore_application
from repro.runtime.loadgen import flash_crowd_arrivals, poisson_arrivals
from repro.runtime.node import LeafNode
from repro.runtime.trace import synthesize_google_trace
from repro.scheduler import DeviceSlot, PolyScheduler, StaticScheduler

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SIM_FILE = GOLDEN_DIR / "sim_digests.json"
FLEET_FILE = GOLDEN_DIR / "fleet_digests.json"
LINT_FILE = GOLDEN_DIR / "lint_digests.json"
MODEL_FILE = GOLDEN_DIR / "model_digests.json"
DSE_FILE = GOLDEN_DIR / "dse_digests.json"
SCHEDULE_FILE = GOLDEN_DIR / "schedule_digests.json"
CLI_FILE = GOLDEN_DIR / "cli_digests.json"

APPS = tuple(apps_mod.APP_BUILDERS)
SYSTEMS = ("Homo-GPU", "Homo-FPGA", "Heter-Poly")
MODES = ("fault-free", "crash-recover", "traced", "chaos", "chaos-traced")
#: Modes whose run carries a fault injector.
FAULT_MODES = ("crash-recover", "chaos", "chaos-traced")
#: Modes whose run is traced (their entries pin the JSONL bytes).
TRACED_MODES = ("traced", "chaos-traced")
#: Modes whose entries also pin the resilience report.
CHAOS_MODES = ("chaos", "chaos-traced")

#: Single-node case shape: a 1.5 s Poisson stream at half the shared
#: peak load (six replan intervals), a crash at 400 ms repaired at
#: 1000 ms in the crash-and-recover mode.
SIM_RPS = 0.5 * harness.PEAK_RPS
SIM_MS = 1_500.0
CRASH_MS = 400.0
RECOVER_MS = 1_000.0
#: Chaos-mode schedule: MTBF 600 ms / MTTR 300 ms on every device, 5
#: transients/s per device, 30% of failures thermal slowdowns.
CHAOS_MTBF_MS = 600.0
CHAOS_MTTR_MS = 300.0
CHAOS_TRANSIENTS_PER_S = 5.0
CHAOS_SLOWDOWN_PROB = 0.3


def digest(obj) -> str:
    """Fingerprint of a JSON-serializable value (floats by ``repr``,
    so every bit counts)."""
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load(path: Path) -> Dict:
    return json.loads(path.read_text())


def jsonl_bytes(events) -> bytes:
    """The events as ``repro simulate --out-dir`` writes them to
    ``events.jsonl``."""
    with tempfile.TemporaryDirectory() as tmp:
        return write_events_jsonl(events, Path(tmp) / "e.jsonl").read_bytes()


def jsonl_digest(events) -> str:
    """Fingerprint of the events' JSONL bytes."""
    return hashlib.sha256(jsonl_bytes(events)).hexdigest()[:16]


# -- single-node cases ------------------------------------------------------


def sim_case_id(app_name: str, system_name: str, mode: str) -> str:
    return f"{app_name}/{system_name}/{mode}"


def run_sim_case(app_name: str, system_name: str, mode: str):
    """One seeded single-node run; returns ``(result, tracer)``."""
    app = harness.get_app(app_name)
    system = runtime.setting("I", system_name)
    spaces = harness.spaces_for(app, system)
    index = APPS.index(app_name) * len(SYSTEMS) + SYSTEMS.index(system_name)
    rng = np.random.default_rng(index)
    arrivals = runtime.poisson_arrivals(SIM_RPS, SIM_MS, rng=rng)
    faults = priorities = None
    if mode == "crash-recover":
        first_device = system.device_inventory()[0][0]
        faults = FaultSchedule.single_crash(
            first_device, at_ms=CRASH_MS, recover_at_ms=RECOVER_MS
        )
    elif mode in CHAOS_MODES:
        faults = FaultSchedule.from_mtbf(
            [d for d, _ in system.device_inventory()],
            SIM_MS,
            CHAOS_MTBF_MS,
            CHAOS_MTTR_MS,
            seed=index,
            transient_rate_per_s=CHAOS_TRANSIENTS_PER_S,
            slowdown_prob=CHAOS_SLOWDOWN_PROB,
        )
        priorities = rng.uniform(size=len(arrivals))
    tracer = SpanTracer() if mode in TRACED_MODES else None
    result = runtime.run_simulation(
        system,
        app,
        spaces,
        arrivals,
        seed=index,
        faults=faults,
        priorities=priorities,
        tracer=tracer,
    )
    return result, tracer


def resilience_sig(report) -> Tuple:
    """Everything a resilience report records: the summary counters and
    every applied event and recovery episode."""
    return (
        report.summary(),
        [(e.time_ms, e.kind.value, e.device_id, e.magnitude)
         for e in report.applied],
        [(r.device_id, r.failed_ms, r.detected_ms, r.replanned_ms)
         for r in report.recoveries],
    )


def sim_digests(result, tracer=None, chaos=False) -> Dict[str, str]:
    """Per-aspect digests of one single-node result; ``chaos`` adds the
    resilience report's digest."""
    node = result.node
    mon = node.monitor
    out = {
        "requests": digest(
            [
                (r.arrival_ms, r.completion_ms, r.predicted_ms, r.retries,
                 r.dropped, r.failed)
                for r in result.requests
            ]
        ),
        "power": digest(result.power_bins_w.tolist()),
        "monitor": digest(
            (
                mon._correction,
                list(mon._latencies),
                list(mon._arrival_times),
                mon._queue_depth,
            )
        ),
        "executions": digest(
            [
                (rec.device_id, rec.kernel_name, rec.point_index,
                 rec.start_ms, rec.end_ms, rec.power_w, rec.batch)
                for dev in node.devices
                for rec in dev.records
            ]
        ),
    }
    if chaos:
        out["faults"] = digest(resilience_sig(result.faults))
    if tracer is not None:
        out["jsonl"] = jsonl_digest(tracer.events)
    return out


# -- fleet cases ------------------------------------------------------------


def fleet_sig(result) -> Tuple:
    """Everything a fleet replay decides: per-request times, routing,
    per-interval stats, the scaling timeline and fleet power."""
    return (
        [(r.arrival_ms, r.completion_ms, r.predicted_ms) for r in result.requests],
        result.node_ids,
        [(iv.t_ms, iv.arrivals, iv.p99_ms) for iv in result.intervals],
        [(e.t_ms, e.action, e.node_id, e.fleet_size) for e in result.timeline],
        result.power_bins_w.tolist(),
    )


def asr_heter():
    app = apps_mod.build("ASR")
    system = runtime.setting("I", "Heter-Poly")
    return app, system, app.explore(system.platforms)


def run_flash_crowd_fleet(asr, warmup_ms=None):
    """Flash-crowd replay on a 1-4 node ASR fleet (seed 5)."""
    app, system, spaces = asr
    kw = {} if warmup_ms is None else {"warmup_ms": warmup_ms}
    cfg = AutoscalerConfig(min_nodes=1, max_nodes=4, **kw)
    sim = ClusterSimulation([system], app, spaces, config=cfg, seed=5)
    arrivals = flash_crowd_arrivals(
        80.0, 16_000.0, 6_000.0, 3_000.0, rng=sim.arrival_rng()
    )
    return sim.run(arrivals, horizon_ms=16_000.0)


def run_trace_replay(asr):
    """``repro cluster --app asr --hours 6``: the seeded 6 h diurnal
    trace replayed on a 1-8 node fleet (seed 0) at 2.5x one node's
    capacity, compressed 200x.  The fleet scales up to four nodes and
    back down to one."""
    app, system, spaces = asr
    sim = ClusterSimulation(
        [system], app, spaces,
        config=AutoscalerConfig(min_nodes=1, max_nodes=8), seed=0,
    )
    trace = synthesize_google_trace(hours=6.0, interval_s=300.0)
    peak_rps = sim._template_capacity(system) * 2.5
    return sim.replay(trace, peak_rps=peak_rps, compress=200.0)


def _node0_fault_fleet(asr, tracer=None, **schedule_kw):
    """A 2-4 node fleet (seed 3) whose first node runs an MTBF fault
    schedule; ``tracer`` traces the fleet with per-node spans."""
    app, system, spaces = asr
    node0_devices = [
        d.device_id for d in LeafNode(system, app, spaces, seed=0).devices
    ]
    schedule = FaultSchedule.from_mtbf(
        node0_devices, 16_000.0, mtbf_ms=1_500.0, mttr_ms=1_500.0,
        **schedule_kw,
    )
    sim = ClusterSimulation(
        [system], app, spaces,
        config=AutoscalerConfig(min_nodes=2, max_nodes=4),
        seed=3, fault_schedules={"node0": schedule},
        tracer=tracer, trace_nodes=tracer is not None,
    )
    arrivals = poisson_arrivals(60.0, 16_000.0, rng=sim.arrival_rng())
    return sim.run(arrivals, horizon_ms=16_000.0)


def run_fault_injected_fleet(asr):
    """The node0-fault fleet, untraced, crashes only."""
    return _node0_fault_fleet(asr)


def run_traced_fault_injected_fleet(asr):
    """The node0-fault fleet traced with per-node spans, its schedule
    adding transients and slowdowns: node0's dispatch programs, its
    retry path and ``cluster.route`` share one event stream.  Returns
    ``(result, tracer)``."""
    tracer = SpanTracer()
    result = _node0_fault_fleet(
        asr, tracer, transient_rate_per_s=2.0, slowdown_prob=0.3
    )
    return result, tracer


def fault_fleet_digest(result) -> str:
    """Fleet signature plus each request's served flag."""
    return digest((fleet_sig(result), [r.served for r in result.requests]))


def run_traced_fleet(asr):
    """Traced replay with per-node spans; returns ``(result, tracer)``."""
    app, system, spaces = asr
    tracer = SpanTracer()
    sim = ClusterSimulation(
        system, app, spaces,
        config=AutoscalerConfig(min_nodes=1, max_nodes=4),
        seed=5, tracer=tracer, trace_nodes=True,
    )
    arrivals = flash_crowd_arrivals(
        80.0, 16_000.0, 6_000.0, 3_000.0, rng=np.random.default_rng(0)
    )
    return sim.run(arrivals, horizon_ms=16_000.0), tracer


def fleet_digests(asr) -> Dict[str, str]:
    out = {"flash_crowd": digest(fleet_sig(run_flash_crowd_fleet(asr)))}
    for warmup_ms in (1500.0, 1234.5):
        result = run_flash_crowd_fleet(asr, warmup_ms)
        out[f"warmup_{warmup_ms}"] = digest(fleet_sig(result))
    out["trace_replay"] = digest(fleet_sig(run_trace_replay(asr)))
    out["fault_injected"] = fault_fleet_digest(run_fault_injected_fleet(asr))
    result, tracer = run_traced_fleet(asr)
    out["traced_latencies"] = digest(result.latencies_ms())
    out["traced_jsonl"] = jsonl_digest(tracer.events)
    result, tracer = run_traced_fault_injected_fleet(asr)
    out["traced_fault_injected"] = {
        "fleet": fault_fleet_digest(result),
        "jsonl": jsonl_digest(tracer.events),
    }
    return out


# -- lint verdicts -----------------------------------------------------------

LINT_SETTINGS = ("I", "II", "III")


def run_lint_case(setting: str) -> Tuple[int, str]:
    """``repro lint --dse --json --setting S``: the exit code and a
    fingerprint of stdout.

    Pattern names carry a process-wide counter (``tiling#0`` in a fresh
    process, ``tiling#63`` after other apps were built), so ``#<n>`` is
    dropped before hashing.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lint", "--dse", "--json", "--setting", setting])
    text = re.sub(r"#\d+", "#", out.getvalue())
    return code, hashlib.sha256(text.encode()).hexdigest()[:16]


# -- device models -----------------------------------------------------------

MODEL_SPECS = tuple(GPU_SPECS.values()) + tuple(FPGA_SPECS.values())
#: Every batch size a GPU design point is read at: each size a batch
#: can grow to (``MAX_GPU_BATCH``) and the planner's operating batches.
GPU_BATCHES = tuple(range(1, 11)) + (16, 32)


def model_case_id(app_name: str, spec) -> str:
    return f"{app_name}/{spec.name}"


def model_columns(app, spec):
    """``estimate_batch`` over every kernel's full knob space: one
    ``(kernel, configs, batch, feasible, latency, power)`` per kernel
    and batch size (GPU rows are all feasible)."""
    model = model_for(spec)
    is_gpu = spec.device_type == DeviceType.GPU
    for kernel in app.kernels:
        configs = KnobSpace(kernel, spec).configs()
        for batch in GPU_BATCHES if is_gpu else (1,):
            if is_gpu:
                latency, power = model.estimate_batch(kernel, configs, batch)
                feasible = np.ones(len(configs), dtype=bool)
            else:
                feasible, latency, power = model.estimate_batch(
                    kernel, configs, batch
                )
            yield kernel, configs, batch, feasible, latency, power


def model_digest(columns) -> str:
    """Fingerprint of the columns' raw bytes (every float bit counts)."""
    h = hashlib.sha256()
    for *_, feasible, latency, power in columns:
        h.update(feasible.astype(bool).tobytes())
        h.update(latency.astype("<f8").tobytes())
        h.update(power.astype("<f8").tobytes())
    return h.hexdigest()[:16]


# -- design spaces -----------------------------------------------------------

#: The synthetic >=10x knob-space enlargement the guided search is tested
#: and timed on: a 20-step frequency ladder and 8 work-group sizes, as
#: ``SEARCH_OVERRIDES`` in ``bench/workloads.py`` and the guided-search
#: ablation in ``benchmarks/test_ablations.py`` enlarge it.
ENLARGE = {
    "freq_scale": tuple(round(float(v), 4) for v in np.linspace(0.3, 1.0, 20)),
    "work_group_size": (32, 64, 96, 128, 192, 256, 384, 512),
}

#: A knob override under which ASR's ``LSTM_acoustic`` over-subscribes
#: the Virtex-7 of Setting I: 78 of its 576 FPGA configs do not place.
#: Every other case's spaces place in full, so the two override kinds
#: are the ones that pin how the DSE leaves such configs out: the
#: exhaustive kind drops them by the model's feasibility column, and
#: the guided kind (seed 0, 64 evaluations) screens them out of its
#: seeds and its bred children before any evaluation, so its space
#: holds one point per evaluation.
OVERRIDE = {"unroll": (1, 16, 256, 1024), "compute_units": (1, 4, 8)}
OVERRIDE_KINDS = ("override", "override-guided")

DSE_SETTINGS = ("I", "II", "III")
#: Seeds of the guided cases.  They search Setting I, the platform set
#: the benchmark's guided ops search (every setting at both seeds would
#: take three times as long).
DSE_SEEDS = (0, 1)
DSE_KINDS = (
    ("exhaustive", "targets")
    + tuple(f"guided-{s}" for s in DSE_SEEDS)
    + OVERRIDE_KINDS
)


def dse_cases(kind: str) -> Tuple[Tuple[str, str, str], ...]:
    """The ``(kind, app, setting)`` cases of one kind."""
    if kind in OVERRIDE_KINDS:
        return ((kind, "ASR", "I"),)
    settings = ("I",) if kind.startswith("guided") else DSE_SETTINGS
    return tuple((kind, a, s) for a in APPS for s in settings)


def dse_case_id(kind: str, app_name: str, setting: str) -> str:
    return f"{kind}/{app_name}/{setting}"


def run_dse_case(kind: str, app_name: str, setting: str):
    """The case's design spaces, keyed ``(kernel, platform)``."""
    app = apps_mod.build(app_name)
    platforms = runtime.setting(setting, "Heter-Poly").platforms
    if kind in OVERRIDE_KINDS:
        lstm = [k for k in app.kernels if k.name == "LSTM_acoustic"]
        if kind == "override":
            return explore_application(
                lstm, platforms, candidate_overrides=OVERRIDE
            )
        return explore_application(
            lstm,
            platforms,
            strategy="guided",
            search=SearchConfig(max_evals=64, seed=0),
            candidate_overrides=OVERRIDE,
        )
    if kind == "exhaustive":
        return explore_application(app.kernels, platforms)
    if kind == "targets":  # the path ``harness.spaces_for`` takes
        return explore_application(app.kernels, platforms, app.dse_targets())
    seed = int(kind.split("-")[1])
    return explore_application(
        app.kernels,
        platforms,
        strategy="guided",
        search=SearchConfig(max_evals=512, seed=seed),
        candidate_overrides=ENLARGE,
    )


def search_sig(stats):
    """What a guided search counted, or ``None`` for an exhaustive space."""
    if stats is None:
        return None
    return (
        stats.explored,
        stats.screened_infeasible,
        stats.evaluations,
        stats.skipped,
        stats.generations,
        [(g.generation, g.evaluations, g.front_points, g.hypervolume)
         for g in stats.generation_log],
    )


def dse_digest(spaces) -> str:
    """Fingerprint of every point of every space, in order, plus each
    space's search counters."""
    return digest(
        [
            (
                key,
                [(p.index, p.latency_ms, p.power_w, repr(p.config)) for p in space],
                search_sig(space.search_stats),
            )
            for key, space in sorted(spaces.items())
        ]
    )


# -- schedules ---------------------------------------------------------------

SCHEDULE_SETTINGS = ("I", "II", "III")
#: Queueing horizons (Eq. 4's T_queue) of the busy slots, cycled over a
#: system's device inventory in order: every device starts queued.
SCHEDULE_HORIZONS_MS = (12.5, 0.5, 40.0, 3.25, 25.0, 1.75, 8.0)
SCHEDULE_LOADS = ("idle", "busy")


def schedule_cases() -> Tuple[Tuple[str, str, str], ...]:
    """The ``(app, setting, system)`` cases."""
    return tuple(
        (a, s, sys_name)
        for a in APPS
        for s in SCHEDULE_SETTINGS
        for sys_name in SYSTEMS
    )


def schedule_case_id(app_name: str, setting: str, system_name: str) -> str:
    return f"{app_name}/{setting}/{system_name}"


def run_schedule_case(app_name: str, setting: str, system_name: str):
    """The system's scheduler on the app's graph, as the node builds it:
    ``{load: (schedule, energy steps)}`` for idle and busy slots."""
    app = harness.get_app(app_name)
    system = runtime.setting(setting, system_name)
    spaces = harness.spaces_for(app, system)
    if system.policy == runtime.SchedulingPolicy.POLY:
        scheduler = PolyScheduler(spaces, app.qos_ms)
    else:
        scheduler = StaticScheduler(spaces, app.qos_ms)
    inventory = system.device_inventory()
    horizons = {
        "idle": [0.0] * len(inventory),
        "busy": [
            SCHEDULE_HORIZONS_MS[i % len(SCHEDULE_HORIZONS_MS)]
            for i in range(len(inventory))
        ],
    }
    out = {}
    for load in SCHEDULE_LOADS:
        slots = [
            DeviceSlot(device_id, spec.name, spec.device_type, horizon)
            for (device_id, spec), horizon in zip(inventory, horizons[load])
        ]
        out[load] = scheduler.schedule(app.graph, slots)
    return out


def schedule_digest(schedule, steps) -> str:
    """Fingerprint of every assignment, in schedule order, and every
    accepted energy swap (times and energies by ``repr``)."""
    return digest(
        (
            [
                (a.kernel_name, a.device_id, a.point.index,
                 repr(a.start_ms), repr(a.end_ms))
                for a in schedule
            ],
            [
                (s.kernel_name, s.device_before, s.device_after,
                 s.before.index, s.after.index,
                 repr(s.energy_saved_mj), repr(s.makespan_ms))
                for s in steps
            ],
        )
    )


def schedule_digests() -> Dict[str, Dict[str, str]]:
    """Every case's ``{load: digest}``, keyed by case id."""
    return {
        schedule_case_id(*case): {
            load: schedule_digest(*result)
            for load, result in run_schedule_case(*case).items()
        }
        for case in schedule_cases()
    }


# -- single-node run commands ------------------------------------------------

#: Stands for a fresh artifact directory in a ``CLI_CASES`` invocation.
OUT = "{out}"
_CI_OBS = ("asr", "--setting", "I", "--rps", "20", "--ms", "4000", "--seed", "0")
#: ``repro simulate`` invocations by case name.  Each case is named after
#: the command it reproduces, recorded before ``repro faults`` and
#: ``repro obs`` were folded into ``repro simulate``: CI's three traced
#: runs, the ``repro faults`` digests quoted in the change record, and
#: runs at a non-zero seed and off Heter-Poly/Setting I.  A case that
#: names ``OUT`` pins every artifact file it writes there; any other
#: pins its stdout.
CLI_CASES = {
    "simulate": ["simulate", "asr", "--rps", "30"],
    "simulate-homo-gpu-ii": [
        "simulate", "ir", "--rps", "25", "--setting", "II", "--system",
        "Homo-GPU", "--ms", "3000",
    ],
    "faults-mtbf": [
        "simulate", "asr", "--ms", "8000", "--mtbf-ms", "1500", "--mttr-ms",
        "700", "--json",
    ],
    "faults-crash": [
        "simulate", "asr", "--ms", "8000", "--crash", "fpga0@1000", "--json",
    ],
    "obs-ci": ["simulate", *_CI_OBS, "--out-dir", OUT, "--summary"],
    "obs-ci-report": [
        "simulate", *_CI_OBS, "--out-dir", OUT, "--report", "--sample-rate",
        "0.1", "--sample-seed", "0",
    ],
    "obs-ci-chaos": [
        "simulate", *_CI_OBS, "--crash", "fpga0@1000", "--recover",
        "fpga0@2500", "--report", "--sample-rate", "0.1", "--sample-seed", "0",
        "--out-dir", OUT,
    ],
    "obs-seed-7": [
        "simulate", "mf", "--rps", "25", "--ms", "3000", "--seed", "7",
        "--out-dir", OUT, "--report", "--window-ms", "500",
        "--sample-top-k", "3",
    ],
    "obs-homo-fpga-ii": [
        "simulate", "wt", "--setting", "II", "--system", "Homo-FPGA",
        "--rps", "20", "--ms", "3000", "--seed", "2", "--crash", "fpga0@800",
        "--out-dir", OUT, "--sample-rate", "0.25", "--sample-seed", "4",
    ],
}


def _bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_cli_case(name: str) -> Dict[str, str]:
    """Run one ``CLI_CASES`` invocation in this process: the digest of
    its stdout, or of each artifact file it writes, keyed by file name."""
    argv = CLI_CASES[name]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main([str(out_dir) if a == OUT else a for a in argv])
        if code != 0:
            raise AssertionError(f"{name}: exit {code}")
        if OUT not in argv:
            return {"stdout": _bytes_digest(out.getvalue().encode())}
        return {
            path.name: _bytes_digest(path.read_bytes())
            for path in sorted(out_dir.iterdir())
        }


def cli_digests() -> Dict[str, Dict[str, str]]:
    return {name: run_cli_case(name) for name in CLI_CASES}


def record() -> None:
    """Rewrite every fixture file from the current code."""
    sims = {
        sim_case_id(a, s, m): sim_digests(
            *run_sim_case(a, s, m), chaos=m in CHAOS_MODES
        )
        for a in APPS
        for s in SYSTEMS
        for m in MODES
    }
    SIM_FILE.write_text(json.dumps(sims, indent=2, sort_keys=True) + "\n")
    fleet = fleet_digests(asr_heter())
    FLEET_FILE.write_text(json.dumps(fleet, indent=2, sort_keys=True) + "\n")
    lint = {s: run_lint_case(s)[1] for s in LINT_SETTINGS}
    LINT_FILE.write_text(json.dumps(lint, indent=2, sort_keys=True) + "\n")
    models = {
        model_case_id(a, spec): model_digest(model_columns(apps_mod.build(a), spec))
        for a in APPS
        for spec in MODEL_SPECS
    }
    MODEL_FILE.write_text(json.dumps(models, indent=2, sort_keys=True) + "\n")
    dse = {
        dse_case_id(*case): dse_digest(run_dse_case(*case))
        for kind in DSE_KINDS
        for case in dse_cases(kind)
    }
    DSE_FILE.write_text(json.dumps(dse, indent=2, sort_keys=True) + "\n")
    SCHEDULE_FILE.write_text(
        json.dumps(schedule_digests(), indent=2, sort_keys=True) + "\n"
    )
    CLI_FILE.write_text(json.dumps(cli_digests(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
