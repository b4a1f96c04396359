"""End-to-end and per-layer benchmark of the repro package.

Run ``python -m bench --workload <name> --seed <n>`` from the root of a
checkout; see ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout the benchmark measures.
ROOT = Path(__file__).resolve().parent.parent

#: The workloads, in the order a full run executes them.
WORKLOAD_NAMES = ("dse_sweep", "fig_sweep", "chaos_obs", "fleet_diurnal")


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Exits with an error when the checkout has no sources, so the
    benchmark never measures some other installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no repro package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"bench: repro was imported from {repro.__file__}")
