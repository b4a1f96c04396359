"""Device health states and the retry/failover policy.

``DeviceHealth`` is the three-state machine the runtime threads through
:class:`~repro.runtime.node.AcceleratorInstance`:

    HEALTHY -> DEGRADED (thermal slowdown) -> HEALTHY  (recovery)
    HEALTHY/DEGRADED -> FAILED (fail-stop crash) -> HEALTHY (repair)

The retry constants govern what happens to an execution lost on a
failed device: the requester notices after :data:`RETRY_TIMEOUT_MS`
(the latency-timeout of the monitor's detection path), then retries
with capped exponential backoff (:func:`backoff_ms`) up to
:data:`MAX_RETRIES` times before the request is declared failed.
"""

from __future__ import annotations

import enum

__all__ = [
    "DeviceHealth",
    "MAX_RETRIES",
    "RETRY_TIMEOUT_MS",
    "backoff_ms",
]


class DeviceHealth(enum.Enum):
    """Health state of one accelerator instance."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"   # serving, but with throttled clocks
    FAILED = "failed"       # fail-stop: executions on it are lost


#: Retries of a lost execution before its request is declared failed.
MAX_RETRIES = 3
#: How long a requester waits before declaring a dispatched execution
#: lost (the failure-detection latency per attempt).
RETRY_TIMEOUT_MS = 20.0

_BACKOFF_BASE_MS = 5.0
_BACKOFF_CAP_MS = 80.0


def backoff_ms(attempt: int) -> float:
    """Backoff before retry ``attempt`` (0-based): 5 ms doubling per
    attempt, capped at 80 ms."""
    return min(_BACKOFF_BASE_MS * (2.0 ** attempt), _BACKOFF_CAP_MS)
