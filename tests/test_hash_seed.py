"""Seeded outputs do not depend on ``PYTHONHASHSEED``.

String hashing is salted per process, so any output that leaned on the
iteration order of a hash-keyed container would differ between two
processes with different hash seeds.  Two subprocesses, one with
``PYTHONHASHSEED=0`` and one with ``=1``, each run one golden
single-node case (chaos, traced), the seeded diurnal fleet replay, a
budgeted guided DSE on an enlarged knob space, every golden schedule
case and every golden command invocation, and print digests of all
five.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from golden_cases import (
    CLI_FILE,
    FLEET_FILE,
    SCHEDULE_FILE,
    SIM_FILE,
    load,
    sim_case_id,
)

ROOT = Path(__file__).resolve().parent.parent

SIM_CASE = ("ASR", "Heter-Poly", "chaos-traced")

SCRIPT = f"""
import dataclasses, json
import numpy as np
from golden_cases import (
    asr_heter, cli_digests, digest, fleet_sig, run_sim_case,
    run_trace_replay, schedule_digests, sim_digests,
)
from repro import apps, runtime
from repro.optim import SearchConfig, explore_application

result, tracer = run_sim_case(*{SIM_CASE!r})
app = apps.build("MF")
spaces = explore_application(
    app.kernels,
    runtime.setting("I", "Heter-Poly").platforms,
    strategy="guided",
    search=SearchConfig(max_evals=64, seed=1),
    candidate_overrides={{
        "freq_scale": tuple(round(float(v), 4) for v in np.linspace(0.3, 1.0, 20)),
        "work_group_size": (32, 64, 96, 128, 192, 256, 384, 512),
    }},
)
guided = [
    (
        key,
        [(p.latency_ms, p.power_w, repr(p.config)) for p in space.pareto()],
        dataclasses.asdict(space.search_stats),
    )
    for key, space in spaces.items()
]
print(json.dumps({{
    "sim": sim_digests(result, tracer, chaos=True),
    "fleet": digest(fleet_sig(run_trace_replay(asr_heter()))),
    "guided": digest(guided),
    "guided_generations": sum(s.search_stats.generations for s in spaces.values()),
    "schedules": schedule_digests(),
    "commands": cli_digests(),
    "salt": hash("repro"),
}}, sort_keys=True))
"""


def _run(hash_seed: str) -> subprocess.Popen:
    path = [str(ROOT / "src"), str(ROOT / "tests")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_digests_equal_under_two_hash_seeds():
    procs = [_run("0"), _run("1")]
    outs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        outs.append(json.loads(stdout.splitlines()[-1]))
    # The two processes salt string hashes differently...
    assert outs[0].pop("salt") != outs[1].pop("salt")
    # ...and agree on every digest.
    assert outs[0] == outs[1]
    # The guided search ran generations, not an exhaustive pass, and
    # the simulations, schedules and commands reproduce their recorded
    # digests.
    assert outs[0]["guided_generations"] > 0
    assert outs[0]["sim"] == load(SIM_FILE)[sim_case_id(*SIM_CASE)]
    assert outs[0]["fleet"] == load(FLEET_FILE)["trace_replay"]
    assert outs[0]["schedules"] == load(SCHEDULE_FILE)
    assert outs[0]["commands"] == load(CLI_FILE)
