"""Diagnostics engine: rule registry, reports, and the ``run_lint`` driver.

Poly's correctness rests on invariants that the optimizing layers assume
rather than enforce: PPG edges must carry shape/dtype-compatible
tensors, and kernel DAGs handed to the two-step scheduler must be
covered by the DSE product and QoS-feasible on the device pool.  This
module provides the machinery that turns those invariants into
*diagnostics* — actionable messages with a rule id, severity and
location — instead of wrong numbers or deep stack traces.  (What a
constructor can check, such as PPG and kernel-graph acyclicity, it
checks itself.)

Rules are plain functions registered with :func:`register_rule`; each
declares the object types it inspects.  :func:`run_lint` expands a
lintable object (an :class:`~repro.apps.base.Application`, a
:class:`~repro.scheduler.kernel_graph.KernelGraph`, a
:class:`~repro.patterns.ppg.Kernel`, a PPG, or any object a rule
targets) into its constituent targets and runs every applicable rule.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..apps.base import Application
from ..patterns.ppg import Kernel
from ..scheduler.kernel_graph import KernelGraph

__all__ = [
    "Severity",
    "Diagnostic",
    "LintReport",
    "LintError",
    "LintContext",
    "LintRule",
    "register_rule",
    "all_rules",
    "rules_for",
    "run_lint",
]


class Severity(enum.Enum):
    """Diagnostic severity; only ERROR makes a lint run fail."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: rule id, severity, location, message and a fix hint."""

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str = ""

    def to_dict(self) -> Dict[str, str]:
        """JSON-serializable form (used by ``repro lint --json``)."""
        out = {
            "rule": self.rule,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
        }
        if self.hint:
            out["hint"] = self.hint
        return out

    def render(self) -> str:
        line = f"{self.severity.value.upper():7s} {self.rule:8s} {self.location}: {self.message}"
        if self.hint:
            line += f"  [hint: {self.hint}]"
        return line


class LintError(RuntimeError):
    """Raised by :meth:`LintReport.raise_if_errors` when a lint run
    reports errors."""

    def __init__(self, report: "LintReport", subject: str = "") -> None:
        self.report = report
        what = f" in {subject}" if subject else ""
        lines = "\n".join(d.render() for d in report.errors)
        super().__init__(
            f"{len(report.errors)} lint error(s){what}:\n{lines}"
        )


@dataclass
class LintContext:
    """Optional context a rule may need beyond the target object itself.

    Every field is optional; rules that need missing context simply skip
    (a structural lint of a bare PPG cannot check QoS feasibility).
    """

    #: Hardware specs (GPUSpec/FPGASpec) the target is checked against:
    #: a node's platforms, or one spec.
    specs: Tuple = ()
    #: QoS tail-latency bound in milliseconds.
    qos_ms: Optional[float] = None
    #: ``{(kernel_name, platform_name): KernelDesignSpace}`` from DSE.
    design_spaces: Optional[Mapping] = None
    #: Scheduler device slots (for implementation-coverage checks).
    devices: Tuple = ()
    #: Application short name, used as a location prefix.
    app_name: str = ""
    #: Per-(kernel, device) cap on enumerated configs before pruning
    #: (OPT004); ``None`` uses the rule's default budget.
    config_budget: Optional[int] = None

    def prefix(self, location: str) -> str:
        return f"{self.app_name}/{location}" if self.app_name else location


@dataclass(frozen=True)
class LintRule:
    """A registered rule: id, default severity, targets and the checker."""

    rule_id: str
    severity: Severity
    targets: Tuple[Type, ...]
    fn: Callable[..., Iterable[Diagnostic]]
    description: str = ""

    def applies_to(self, obj: object) -> bool:
        return isinstance(obj, self.targets)


_REGISTRY: Dict[str, LintRule] = {}


def register_rule(
    rule_id: str,
    severity: Severity,
    targets: Sequence[Type],
    description: str = "",
) -> Callable:
    """Decorator registering ``fn(obj, ctx) -> Iterable[Diagnostic]``."""

    def decorator(fn: Callable[..., Iterable[Diagnostic]]) -> Callable:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        doc_lines = (fn.__doc__ or "").strip().splitlines()
        _REGISTRY[rule_id] = LintRule(
            rule_id=rule_id,
            severity=severity,
            targets=tuple(targets),
            fn=fn,
            description=description or (doc_lines[0] if doc_lines else ""),
        )
        return fn

    return decorator


def all_rules() -> List[LintRule]:
    """Every registered rule, sorted by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def rules_for(obj: object) -> List[LintRule]:
    """Rules applicable to one target object."""
    return [r for r in all_rules() if r.applies_to(obj)]


class LintReport:
    """Collected diagnostics of one lint run."""

    def __init__(self, diagnostics: Optional[Iterable[Diagnostic]] = None) -> None:
        self.diagnostics: List[Diagnostic] = list(diagnostics or [])

    # -- accumulation --------------------------------------------------------

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, other: "LintReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    # -- queries -------------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity diagnostics were reported."""
        return not self.errors

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule_id]

    def raise_if_errors(self, subject: str = "") -> None:
        if not self.ok:
            raise LintError(self, subject)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if not self.diagnostics:
            return "clean: no diagnostics"
        lines = [d.render() for d in self.diagnostics]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.diagnostics) - len(self.errors) - len(self.warnings)} info"
        )
        return "\n".join(lines)

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "diagnostics": [d.to_dict() for d in self.diagnostics],
            },
            **dumps_kwargs,
        )

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __repr__(self) -> str:
        return (
            f"<LintReport: {len(self.errors)} errors, "
            f"{len(self.warnings)} warnings, {len(self)} total>"
        )


# ---------------------------------------------------------------------------
# Target expansion
# ---------------------------------------------------------------------------


def _expand(obj: object, ctx: LintContext) -> Iterator[Tuple[object, LintContext]]:
    """Yield (target, context) pairs for one lintable object.

    Containers recurse: an Application yields its kernel graph, every
    kernel and every PPG; a Kernel yields itself plus its PPG.
    """
    if isinstance(obj, Application):
        sub = replace(
            ctx, qos_ms=ctx.qos_ms or obj.qos_ms, app_name=ctx.app_name or obj.name
        )
        yield from _expand(obj.graph, sub)
        return
    if isinstance(obj, KernelGraph):
        yield obj, ctx
        for kernel in obj.kernels:
            yield from _expand(kernel, ctx)
        return
    if isinstance(obj, Kernel):
        yield obj, ctx
        yield obj.ppg, ctx
        return
    yield obj, ctx


def run_lint(
    obj: object,
    context: Optional[LintContext] = None,
    *,
    expand: bool = True,
    rule_ids: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run every applicable rule over ``obj`` (and its constituents).

    ``expand=False`` restricts the run to rules targeting ``obj``'s own
    type — the scheduler admission check uses this to lint only the
    kernel-graph layer on the hot path.  ``rule_ids`` further restricts
    to a named subset.
    """
    ctx = context or LintContext()
    report = LintReport()
    targets = _expand(obj, ctx) if expand else iter([(obj, ctx)])
    wanted = set(rule_ids) if rule_ids is not None else None
    for target, target_ctx in targets:
        for rule in rules_for(target):
            if wanted is not None and rule.rule_id not in wanted:
                continue
            try:
                report.diagnostics.extend(rule.fn(target, target_ctx))
            except Exception as exc:  # a broken rule must not mask others
                report.add(
                    Diagnostic(
                        rule="LINT000",
                        severity=Severity.ERROR,
                        location=target_ctx.prefix(type(target).__name__),
                        message=f"rule {rule.rule_id} crashed: {exc!r}",
                        hint="this is a bug in the lint rule itself",
                    )
                )
    return report
