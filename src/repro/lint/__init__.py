"""``repro.lint`` — static diagnostics for PPGs, design points, schedules.

A rule-registry lint engine over what Poly's constructors cannot see.
Every value the program builds (a PPG inside a :class:`Kernel`, a
kernel graph inside an :class:`Application`, an autoscaler or search
config) checks its own invariants when it is built; lint reports the
rest:

* **pattern layer** — PPG edge shape/dtype compatibility, scatter-write
  hazards, fusion legality and orphans (``PPG00x`` rules);
* **optimization layer** — Table-I knob applicability, FPGA resource
  budgets, degenerate work-group sizes and design-space budgets
  (``OPT00x`` rules);
* **runtime layer** — QoS-feasibility lower bounds, device-pool
  implementation coverage, fault schedules that leave a kernel no
  survivor, and legal but suspicious autoscaler settings (``RT00x``
  rules);
* **observability** — fleet-scale traces without a sampling policy
  (``OBS002``).

Entry points: :func:`run_lint` for any lintable object, the
``repro lint`` CLI subcommand, the ``validate=True`` gate of
:mod:`repro.optim.dse`, and the scheduler admission check
:meth:`repro.scheduler.PolyScheduler.admission_check`.
"""

from .core import (
    DesignCheck,
    Diagnostic,
    LintContext,
    LintError,
    LintReport,
    LintRule,
    Severity,
    all_rules,
    register_rule,
    rules_for,
    run_lint,
)

# Importing the rule modules populates the registry.
from . import optim_rules, pattern_rules, runtime_rules  # noqa: F401  (registration side effect)

__all__ = [
    "DesignCheck",
    "Diagnostic",
    "LintContext",
    "LintError",
    "LintReport",
    "LintRule",
    "Severity",
    "all_rules",
    "register_rule",
    "rules_for",
    "run_lint",
]

