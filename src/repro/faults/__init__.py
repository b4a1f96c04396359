"""Fault injection and failover resilience for the heterogeneous runtime.

The paper's system monitor (Fig. 2, Section VI-C) closes a feedback
loop over *healthy* devices; this package adds the unhealthy half of
datacenter reality so tail latency and QoS violations can be studied
under device failures:

* :mod:`repro.faults.events`   — typed fault events and deterministic,
  seed-driven MTBF/MTTR fault schedules;
* :mod:`repro.faults.policy`   — device health states and the
  timeout + capped-exponential-backoff retry constants;
* :mod:`repro.faults.injector` — the injection engine that applies a
  schedule to a running leaf node and intercepts doomed executions;
* :mod:`repro.faults.failover` — missed-heartbeat detection, replanning
  over the surviving device set (reusing the per-device Pareto fronts)
  and graceful degradation via priority load shedding.

Quickstart::

    from repro import apps, runtime
    from repro.faults import FaultSchedule

    app = apps.build("ASR")
    system = runtime.setting("I", "Heter-Poly")
    spaces = app.explore(system.platforms)
    arrivals = runtime.poisson_arrivals(rps=30, duration_ms=10_000)
    chaos = FaultSchedule.single_crash("fpga0", at_ms=4_000)
    result = runtime.run_simulation(system, app, spaces, arrivals, faults=chaos)
    print(result.availability, result.faults.mean_recovery_ms)
"""

from .events import FaultEvent, FaultKind, FaultSchedule
from .failover import FailoverPlanner, RecoveryRecord
from .injector import FaultInjector, ResilienceReport
from .policy import DeviceHealth

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "DeviceHealth",
    "FaultInjector",
    "ResilienceReport",
    "FailoverPlanner",
    "RecoveryRecord",
]
