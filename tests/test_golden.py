"""Golden single-node runs: every app x Setting-I system x mode against
the digests pinned in ``tests/golden/sim_digests.json``.

The three modes cover the three ways a request runs today: the
event-heap engine (fault-free), the fault-injected path a crash of the
system's first device delegates to ``LeafNode.submit``
(crash-and-recover), and the engine's native tracing (traced, which
also pins the JSONL event stream).  A digest names the aspect that
moved: request records, power bins, monitor state, device executions
or the JSONL bytes.
"""

import pytest

from golden_cases import (
    APPS,
    MODES,
    SIM_FILE,
    SYSTEMS,
    load,
    run_sim_case,
    sim_case_id,
    sim_digests,
)

GOLDEN = load(SIM_FILE)

CASES = [(a, s, m) for a in APPS for s in SYSTEMS for m in MODES]


def test_fixture_covers_every_case():
    assert set(GOLDEN) == {sim_case_id(*case) for case in CASES}


@pytest.mark.parametrize(
    "app_name,system_name,mode", CASES, ids=["-".join(c) for c in CASES]
)
def test_sim_digests(app_name, system_name, mode):
    result, tracer = run_sim_case(app_name, system_name, mode)
    assert sim_digests(result, tracer) == GOLDEN[
        sim_case_id(app_name, system_name, mode)
    ]
    if mode == "crash-recover":
        assert result.faults is not None
    else:
        assert result.faults is None
