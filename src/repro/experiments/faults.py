"""Fault-rate sweep — QoS resilience under random device failures.

Not a paper figure: the HPCA'19 evaluation assumes healthy hardware.
This experiment drives the fault-injection subsystem across a grid of
mean-time-between-failures values on Heter-Poly and reports how
availability, tail latency, QoS violations and load shedding degrade
as faults become more frequent.  The shapes to expect: availability
stays ~1.0 and violations near the fault-free level at long MTBF,
both degrade monotonically (modulo sampling noise) as MTBF shrinks,
and recovery time stays near the heartbeat timeout regardless of rate
(detection dominates; replanning is immediate).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..faults import FaultSchedule
from ..runtime import poisson_arrivals, run_simulation, setting
from .harness import get_app, render_table, spaces_for

__all__ = ["run", "render", "DEFAULT_MTBF_GRID_MS"]

#: Sweep grid: from "one failure every couple of runs" down to "devices
#: dropping like flies" (MTBF of the same order as the repair time).
DEFAULT_MTBF_GRID_MS = (60_000.0, 20_000.0, 8_000.0, 3_000.0)


def run(
    app_name: str = "ASR",
    mtbf_grid_ms: Sequence[float] = DEFAULT_MTBF_GRID_MS,
    mttr_ms: float = 1_000.0,
    rps: float = 30.0,
    duration_ms: float = 8_000.0,
    seed: int = 0,
) -> Dict[str, List[Dict[str, float]]]:
    """Returns ``{app: [{mtbf_ms, availability, p99_ms, ...}, ...]}``
    with a leading fault-free baseline row (``mtbf_ms = inf``)."""
    app = get_app(app_name)
    system = setting("I", "Heter-Poly")
    spaces = spaces_for(app, system)
    device_ids = [device_id for device_id, _ in system.device_inventory()]
    arrivals = poisson_arrivals(rps, duration_ms)

    rows: List[Dict[str, float]] = []
    baseline = run_simulation(system, app, spaces, arrivals, seed=seed)
    rows.append(
        {
            "mtbf_ms": float("inf"),
            "availability": baseline.availability,
            "p99_ms": baseline.p99_ms,
            "violations": baseline.qos_violations(app.qos_ms),
            "shed": 0.0,
            "failed": 0.0,
            "mean_recovery_ms": float("nan"),
        }
    )
    for mtbf_ms in mtbf_grid_ms:
        schedule = FaultSchedule.from_mtbf(
            device_ids,
            duration_ms=duration_ms,
            mtbf_ms=mtbf_ms,
            mttr_ms=mttr_ms,
            seed=seed,
        )
        result = run_simulation(
            system,
            app,
            spaces,
            arrivals,
            seed=seed,
            faults=schedule,
        )
        report = result.faults
        rows.append(
            {
                "mtbf_ms": mtbf_ms,
                "availability": result.availability,
                "p99_ms": result.p99_ms,
                "violations": result.qos_violations(app.qos_ms),
                "shed": float(report.shed),
                "failed": float(report.failed_requests),
                "mean_recovery_ms": report.mean_recovery_ms,
            }
        )
    return {app_name: rows}


def render(data: Dict[str, List[Dict[str, float]]]) -> str:
    parts = []
    for app_name, rows in data.items():
        table = [
            (
                "none" if row["mtbf_ms"] == float("inf")
                else f"{row['mtbf_ms']/1000.0:.0f}s",
                f"{row['availability']*100:.2f}%",
                f"{row['p99_ms']:.0f}",
                f"{row['violations']*100:.2f}%",
                f"{int(row['shed'])}",
                f"{int(row['failed'])}",
                "-" if row["mean_recovery_ms"] != row["mean_recovery_ms"]
                else f"{row['mean_recovery_ms']:.0f}",
            )
            for row in rows
        ]
        parts.append(
            render_table(
                ("MTBF", "avail", "p99 ms", "viol", "shed", "failed", "recov ms"),
                table,
                f"Fault sweep ({app_name} on Heter-Poly/I): "
                "resilience vs failure rate",
            )
        )
    return "\n\n".join(parts)
