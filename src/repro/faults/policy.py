"""Device health states and the retry/failover policy.

``DeviceHealth`` is the three-state machine the runtime threads through
:class:`~repro.runtime.node.AcceleratorInstance`:

    HEALTHY -> DEGRADED (thermal slowdown) -> HEALTHY  (recovery)
    HEALTHY/DEGRADED -> FAILED (fail-stop crash) -> HEALTHY (repair)

``RetryPolicy`` governs what happens to an execution lost on a failed
device: the requester notices after ``timeout_ms`` (the latency-timeout
of the monitor's detection path), then retries with capped exponential
backoff up to ``max_retries`` times before the request is declared
failed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = ["DeviceHealth", "RetryPolicy"]


class DeviceHealth(enum.Enum):
    """Health state of one accelerator instance."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"   # serving, but with throttled clocks
    FAILED = "failed"       # fail-stop: executions on it are lost


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + capped-exponential-backoff retry for lost executions."""

    max_retries: int = 3
    #: How long a requester waits before declaring a dispatched
    #: execution lost (the failure-detection latency per attempt).
    timeout_ms: float = 20.0
    backoff_base_ms: float = 5.0
    backoff_cap_ms: float = 80.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        # A zero timeout models instantaneous failure detection.
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if self.backoff_base_ms < 0:
            raise ValueError("backoff base must be non-negative")
        # An infinite cap lets retry delays grow without limit.
        if not 0.0 < self.backoff_cap_ms < math.inf:
            raise ValueError("backoff_cap_ms must be in (0, inf)")

    def backoff_ms(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), capped."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        raw = self.backoff_base_ms * (2.0 ** attempt)
        return min(raw, self.backoff_cap_ms)
