"""Optimization-layer lint rule: the design-space budget (OPT004).

The DSE needs no per-config rule.  Its knob space varies only the
knobs Table I makes applicable to the kernel's patterns on the device
(candidate overrides replace the values of those knobs and cannot add
one), and whether a design places on an FPGA is the device model's
feasibility column, which drops the designs that do not.  What is left
to flag before a DSE is a space too large to enumerate.
"""

from __future__ import annotations

from typing import Iterator, List

from ..optim.global_opt import GlobalOptimizer
from ..optim.local_opt import LocalOptimizer
from ..patterns.analysis import analyze_kernel
from ..patterns.ppg import Kernel
from .core import Diagnostic, LintContext, Severity, register_rule

__all__: List[str] = []

#: Default OPT004 cap on a kernel's enumerated (pre-pruning) configs
#: per device.  The bundled Table-II kernels top out at 1536; anything
#: past this is a knob-product explosion the DSE will pay for linearly.
DEFAULT_CONFIG_BUDGET = 2048


@register_rule(
    "OPT004",
    Severity.WARNING,
    (Kernel,),
    "design-space cost exceeds the configured budget",
)
def check_config_budget(kernel: Kernel, ctx: LintContext) -> Iterator[Diagnostic]:
    """Knob products explode combinatorially (each candidate list
    multiplies the space); a kernel whose enumerated space blows past
    the budget makes every DSE run pay model-evaluation time linearly in
    the excess.  Counting via the local plan's candidate lists costs
    one kernel analysis — the space itself is never materialized.
    """
    if not ctx.specs:
        return
    budget = ctx.config_budget if ctx.config_budget is not None else DEFAULT_CONFIG_BUDGET
    analysis = analyze_kernel(kernel)
    for spec in ctx.specs:
        local = LocalOptimizer(spec.device_type).plan(analysis)
        fused_variants = 2 if GlobalOptimizer(spec).plan(analysis).worthwhile else 1
        count = local.space_size * fused_variants
        if count > budget:
            yield Diagnostic(
                rule="OPT004",
                severity=Severity.WARNING,
                location=ctx.prefix(f"{kernel.name}@{spec.name}"),
                message=(
                    f"kernel enumerates {count} configs on "
                    f"{spec.device_type.value} (budget {budget}): "
                    "knob-product explosion before pruning"
                ),
                hint=(
                    "narrow per-knob candidate lists or split the kernel; "
                    "switch the DSE to strategy='guided' or raise "
                    "LintContext.config_budget if the size is intended"
                ),
            )
