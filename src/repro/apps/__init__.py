"""The six QoS-sensitive benchmarks of Table II.

Each module builds one :class:`~repro.apps.base.Application`: a kernel
DAG of parallel-pattern compositions matching Table II's inventory.
"""

from . import asr, cs, fqt, ir, mf, wt
from .base import DEFAULT_QOS_MS, Application

__all__ = [
    "Application",
    "DEFAULT_QOS_MS",
    "build",
    "APP_BUILDERS",
    "asr",
    "fqt",
    "ir",
    "cs",
    "mf",
    "wt",
]

#: Benchmark short name -> builder, in Table II order.
APP_BUILDERS = {
    "ASR": asr.build,
    "FQT": fqt.build,
    "IR": ir.build,
    "CS": cs.build,
    "MF": mf.build,
    "WT": wt.build,
}


def build(name: str) -> Application:
    """Build one benchmark by its Table II short name."""
    try:
        return APP_BUILDERS[name.upper()]()
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; expected one of {sorted(APP_BUILDERS)}"
        ) from None

