"""Golden single-node runs: every app x Setting-I system x mode against
the digests pinned in ``tests/golden/sim_digests.json``, and every app x
Setting I-III system's schedules against ``schedule_digests.json``.

Every mode runs on the event-heap engine's generated dispatch programs:
fault-free, a crash of the system's first device repaired later
(crash-and-recover), native tracing (traced, which also pins the JSONL
event stream), and a seeded MTBF/MTTR chaos schedule with transients,
thermal slowdowns and request priorities, untraced and traced (chaos,
chaos-traced), whose entries also pin the resilience report.  A digest
names the aspect that moved: request records, power bins, monitor
state, device executions, the resilience report or the JSONL bytes.

A schedule entry pins what the system's scheduler decides on idle
device slots and on slots queued to fixed horizons: every assignment
and every Step-2 swap.

A command entry (``cli_digests.json``) pins what one single-node run
invocation prints with ``--json`` or as plain text, or the bytes of
every artifact a traced one writes.
"""

import functools

import pytest

from golden_cases import (
    APPS,
    CHAOS_MODES,
    CLI_CASES,
    CLI_FILE,
    FAULT_MODES,
    MODES,
    SCHEDULE_FILE,
    SIM_FILE,
    SYSTEMS,
    load,
    run_cli_case,
    run_schedule_case,
    run_sim_case,
    schedule_case_id,
    schedule_cases,
    schedule_digest,
    sim_case_id,
    sim_digests,
)

GOLDEN = load(SIM_FILE)
SCHEDULES = load(SCHEDULE_FILE)
COMMANDS = load(CLI_FILE)

CASES = [(a, s, m) for a in APPS for s in SYSTEMS for m in MODES]

#: Each case runs once per session: the coverage check below reads the
#: same results the digest tests do.
run_case = functools.lru_cache(maxsize=None)(run_sim_case)


def test_fixture_covers_every_case():
    assert set(GOLDEN) == {sim_case_id(*case) for case in CASES}


@pytest.mark.parametrize(
    "app_name,system_name,mode", CASES, ids=["-".join(c) for c in CASES]
)
def test_sim_digests(app_name, system_name, mode):
    result, tracer = run_case(app_name, system_name, mode)
    assert sim_digests(result, tracer, chaos=mode in CHAOS_MODES) == GOLDEN[
        sim_case_id(app_name, system_name, mode)
    ]
    if mode in FAULT_MODES:
        assert result.faults is not None
    else:
        assert result.faults is None


def test_chaos_cases_cover_every_fault_kind():
    """The chaos fixtures exercise every fault behaviour: failovers and
    crash recoveries, transient and slowdown injections, and requests
    shed at admission or abandoned after their retries."""
    counted = {
        "fault.failover": "failovers",
        "fault.recover": "recoveries",
        "fault.inject:transient": "transients",
        "fault.inject:slowdown": "slowdowns",
        "request.shed": "shed",
        "request.abandon": "abandoned",
    }
    totals = dict.fromkeys(counted.values(), 0)
    for app_name in APPS:
        for system_name in SYSTEMS:
            _, tracer = run_case(app_name, system_name, "chaos-traced")
            for event in tracer.events:
                key = event.kind
                if key == "fault.inject":
                    key = f"{key}:{event.args['fault']}"
                if key in counted:
                    totals[counted[key]] += 1
    assert all(totals.values()), totals


def test_schedule_fixture_covers_every_case():
    assert set(SCHEDULES) == {schedule_case_id(*c) for c in schedule_cases()}


@pytest.mark.parametrize(
    "app_name,setting,system_name",
    schedule_cases(),
    ids=["-".join(c) for c in schedule_cases()],
)
def test_schedule_digests(app_name, setting, system_name):
    results = run_schedule_case(app_name, setting, system_name)
    assert {
        load: schedule_digest(*result) for load, result in results.items()
    } == SCHEDULES[schedule_case_id(app_name, setting, system_name)]


def test_cli_fixture_covers_every_case():
    assert set(COMMANDS) == set(CLI_CASES)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_digests(name):
    assert run_cli_case(name) == COMMANDS[name]
