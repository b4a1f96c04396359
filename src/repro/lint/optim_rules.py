"""Optimization-layer lint rules: knob applicability and FPGA budgets.

These rules inspect :class:`~repro.lint.core.DesignCheck` triples —
one (kernel, config, spec) candidate implementation.  The DSE
``validate=True`` gate runs them over every enumerated config *before*
the analytical models are evaluated, pruning illegal points instead of
modelling them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List

from ..hardware.config import ImplConfig
from ..hardware.fpga_model import FPGAModel
from ..hardware.specs import DeviceType
from ..optim.knobs import applicable_knobs
from ..patterns.ppg import Kernel
from .core import DesignCheck, Diagnostic, LintContext, Severity, register_rule

__all__: List[str] = []

#: Default OPT004 cap on a kernel's enumerated (pre-pruning) configs
#: per device.  The bundled Table-II kernels top out at 1536; anything
#: past this is a knob-product explosion the DSE will pay for linearly.
DEFAULT_CONFIG_BUDGET = 2048

#: Knobs that are platform features rather than Table-I code
#: transformations — always legal regardless of pattern mix.
_ALWAYS_APPLICABLE = frozenset({"freq_scale", "fused"})

_CONFIG_DEFAULTS: Dict[str, object] = {
    f.name: f.default for f in dataclasses.fields(ImplConfig)
}


@register_rule(
    "OPT001",
    Severity.ERROR,
    (DesignCheck,),
    "knob set to a non-default value but inapplicable to the pattern/device",
)
def check_knob_applicability(check: DesignCheck, ctx: LintContext) -> Iterator[Diagnostic]:
    """Table I defines which optimization applies to which pattern on
    which device family; a knob outside that set is dead configuration
    at best and an invalid code transformation at worst."""
    allowed = applicable_knobs(
        check.kernel.pattern_kinds, check.spec.device_type
    ) | _ALWAYS_APPLICABLE
    for name, default in _CONFIG_DEFAULTS.items():
        value = getattr(check.config, name)
        if value == default or name in allowed:
            continue
        kinds = ", ".join(k.value for k in check.kernel.pattern_kinds)
        yield Diagnostic(
            rule="OPT001",
            severity=Severity.ERROR,
            location=ctx.prefix(check.location),
            message=(
                f"knob {name}={value!r} is not applicable to patterns "
                f"[{kinds}] on {check.spec.device_type.value} (Table I)"
            ),
            hint=f"leave {name} at its default ({default!r}) or change the pattern mix",
        )


@register_rule(
    "OPT002",
    Severity.ERROR,
    (DesignCheck,),
    "FPGA implementation over-subscribes the part's resource budget",
)
def check_fpga_resources(check: DesignCheck, ctx: LintContext) -> Iterator[Diagnostic]:
    """A design that does not place on the part wastes DSE time at best;
    catching it before model evaluation keeps the space honest."""
    if check.spec.device_type != DeviceType.FPGA:
        return
    res = FPGAModel(check.spec).resources(check.kernel, check.config)
    over = []
    if res.dsp > check.spec.dsp_slices:
        over.append(f"DSP {res.dsp}/{check.spec.dsp_slices}")
    if res.bram_bytes > check.spec.bram_bytes:
        over.append(f"BRAM {res.bram_bytes}/{check.spec.bram_bytes} bytes")
    if res.logic_cells_k > check.spec.logic_cells_k:
        over.append(f"logic {res.logic_cells_k:.0f}k/{check.spec.logic_cells_k:.0f}k cells")
    if over:
        yield Diagnostic(
            rule="OPT002",
            severity=Severity.ERROR,
            location=ctx.prefix(check.location),
            message=(
                f"design {check.config.describe()} over-subscribes "
                f"{check.spec.name}: " + ", ".join(over)
            ),
            hint="reduce unroll/compute_units or target a larger part",
        )


@register_rule(
    "OPT003",
    Severity.WARNING,
    (DesignCheck,),
    "degenerate work-group size",
)
def check_work_group_size(check: DesignCheck, ctx: LintContext) -> Iterator[Diagnostic]:
    """Non-power-of-two work-groups fragment wavefronts/SIMD lanes, and
    groups larger than the kernel's data parallelism leave lanes idle."""
    wg = check.config.work_group_size
    loc = ctx.prefix(check.location)
    if wg & (wg - 1) != 0:
        yield Diagnostic(
            rule="OPT003",
            severity=Severity.WARNING,
            location=loc,
            message=f"work_group_size={wg} is not a power of two",
            hint="use a power-of-two work-group size (64, 128, 256, ...)",
        )
    max_par = check.kernel.max_data_parallelism
    if wg > max_par:
        yield Diagnostic(
            rule="OPT003",
            severity=Severity.WARNING,
            location=loc,
            message=(
                f"work_group_size={wg} exceeds the kernel's data "
                f"parallelism ({max_par}): most work-items are idle"
            ),
            hint=f"cap work_group_size at {max_par}",
        )


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
    nothing — the space itself is never materialized.
    """
    from ..optim.global_opt import GlobalOptimizer
    from ..optim.local_opt import LocalOptimizer

    specs = (ctx.spec,) if ctx.spec is not None else tuple(ctx.specs)
    budget = ctx.config_budget if ctx.config_budget is not None else DEFAULT_CONFIG_BUDGET
    for spec in specs:
        if spec is None:
            continue
        local = LocalOptimizer(spec.device_type).plan(kernel)
        fused_variants = 2 if GlobalOptimizer(spec).plan(kernel).worthwhile else 1
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

