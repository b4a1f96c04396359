"""Baseline comparison: the CI performance gate.

``benchmarks/baseline.json`` is a checked-in BENCH document recorded on
a reference machine.  A fresh run regresses when its *normalized* DSE
median — seconds divided by the run's own calibration time, i.e. the
cost in units of "this machine's scalar speed" — exceeds the baseline's
normalized median by more than ``max_ratio``.  Normalization is what
lets a laptop-recorded baseline gate a CI runner of a different speed
without hand-tuned fudge factors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from .harness import SCHEMA_VERSION

__all__ = ["BaselineComparison", "compare_to_baseline", "load_bench_json"]

#: Sections of a per-app entry that are gated.  ``dse`` tracks the
#: offline exploration cost; ``sim`` tracks the event-heap engine
#: (``cold_s`` = first run, including the dispatch-code cache fill,
#: ``median_s`` = warm steady state); ``cluster`` tracks the fleet
#: replay (dispatcher + autoscaler loop); ``obs`` tracks the traced
#: event engine (native in-loop span emission); ``dse_search`` tracks
#: the budgeted guided explorer on the enlarged synthetic space
#: (``cold_s``/``median_s`` are the guided trials).
GATED_SECTIONS = ("dse", "sim", "cluster", "obs", "dse_search")

#: Metrics gated within each section (when present in both documents).
#: ``cold_s`` catches model-evaluation slowdowns the warm cache would
#: hide; ``median_s`` (warm under >=2 trials) catches cache regressions.
GATED_METRICS = ("median_s", "cold_s")


def load_bench_json(path) -> Dict:
    """Load and structurally validate one BENCH document."""
    doc = json.loads(Path(path).read_text())
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != supported {SCHEMA_VERSION}"
        )
    for key in ("label", "apps", "calibration_s"):
        if key not in doc:
            raise ValueError(f"{path}: missing BENCH key {key!r}")
    if doc["calibration_s"] <= 0:
        raise ValueError(f"{path}: calibration_s must be positive")
    return doc


@dataclass
class BaselineComparison:
    """Outcome of gating one BENCH run against a baseline."""

    max_ratio: float
    #: ``{(app, section): ratio}`` of normalized medians (current / base).
    ratios: Dict = field(default_factory=dict)
    #: Human-readable descriptions of gate failures.
    regressions: List[str] = field(default_factory=list)
    #: Apps present in only one of the two documents (not gated).
    skipped: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = []
        for (app, metric), ratio in sorted(self.ratios.items()):
            verdict = "OK" if ratio <= self.max_ratio else "REGRESSION"
            lines.append(
                f"  {app:4s} {metric:14s} {ratio:5.2f}x vs baseline "
                f"(gate {self.max_ratio:.1f}x) [{verdict}]"
            )
        for app in self.skipped:
            lines.append(f"  {app:4s} skipped: not in both documents")
        lines.append("gate: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def compare_to_baseline(
    current: Dict,
    baseline: Dict,
    max_ratio: float = 2.0,
    sections: Sequence[str] = GATED_SECTIONS,
) -> BaselineComparison:
    """Gate ``current`` against ``baseline`` on normalized medians.

    Only apps present in both documents are gated; a missing app is
    recorded as skipped rather than failed, so the gate keeps working
    while the benched app set evolves.
    """
    if max_ratio <= 0:
        raise ValueError("max_ratio must be positive")
    result = BaselineComparison(max_ratio=max_ratio)
    cur_cal = current["calibration_s"]
    base_cal = baseline["calibration_s"]
    cur_apps, base_apps = current["apps"], baseline["apps"]
    for app in sorted(set(cur_apps) | set(base_apps)):
        if app not in cur_apps or app not in base_apps:
            result.skipped.append(app)
            continue
        for section in sections:
            cur_sec = cur_apps[app].get(section)
            base_sec = base_apps[app].get(section)
            if not cur_sec or not base_sec:
                continue
            for metric in GATED_METRICS:
                cur_val = cur_sec.get(metric)
                base_val = base_sec.get(metric)
                if cur_val is None or base_val is None:
                    continue
                cur_norm = cur_val / cur_cal
                base_norm = base_val / base_cal
                ratio = cur_norm / base_norm if base_norm > 0 else float("inf")
                result.ratios[(app, f"{section}.{metric}")] = ratio
                if ratio > max_ratio:
                    result.regressions.append(
                        f"{app}/{section}.{metric}: normalized time "
                        f"{ratio:.2f}x the baseline (gate {max_ratio:.1f}x; "
                        f"current {cur_val*1000:.1f} ms, baseline "
                        f"{base_val*1000:.1f} ms)"
                    )
    return result
