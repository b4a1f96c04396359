"""Tests for the static diagnostics engine (repro.lint).

One positive (rule fires) and one negative (rule stays quiet) case per
rule, the engine machinery, the DSE validate gate and the scheduler
admission check, the CLI subcommand, and a property test that
lint-clean PPGs never raise inside DSE.
"""

import errno
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import chain_graph, small_kernel, synthetic_space
from golden_cases import LINT_FILE, LINT_SETTINGS, load, run_lint_case
from repro import apps as apps_mod
from repro.apps.base import Application
from repro.cli import main
from repro.cluster import AutoscalerConfig
from repro.frontend import build_kernel, parse
from repro.hardware import AMD_W9100, ImplConfig
from repro.hardware.specs import DeviceType, INTEL_ARRIA10, XILINX_7V3
from repro.lint import (
    DesignCheck,
    Diagnostic,
    LintContext,
    LintError,
    Severity,
    all_rules,
    register_rule,
    rules_for,
    run_lint,
)
from repro.lint.core import _REGISTRY
from repro.optim.dse import enumerate_configs, explore_kernel, prune_invalid_configs
from repro.patterns import Kernel, Map, PPG, Reduce, Scatter, Tensor
from repro.scheduler import DeviceSlot, KernelGraph, PolyScheduler

EXPECTED_RULES = {
    "PPG001", "PPG002", "PPG003", "PPG004", "PPG005", "PPG006", "PPG007",
    "OPT001", "OPT002", "OPT003", "OPT004", "RT002", "RT003", "RT004",
    "RT007", "OBS002",
}


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _producer_consumer(consumed: Tensor):
    """Reduce(x) -> Map(consumed); Reduce's output is named ``x_red``."""
    x = Tensor("x", (1024,))
    ppg = PPG("pc")
    r = ppg.add_pattern(Reduce((x,), func="add"))
    m = ppg.add_pattern(Map((consumed,), func="mul"))
    ppg.connect(r, m)
    return ppg


def _big_fp64_kernel(name="big"):
    """A kernel whose widest FPGA configs over-subscribe Arria 10 DSPs."""
    x = Tensor(f"{name}_x", (1 << 20,), "fp64")
    ppg = PPG(name)
    ppg.add_pattern(Map((x,), func="mac", ops_per_element=64.0))
    return Kernel(name, ppg)


def _bad_shape_kernel(name="BAD"):
    """Kernel with a shape-mismatched PPG edge (PPG001)."""
    return Kernel(name, _producer_consumer(Tensor("x_red", (512,))))


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class TestEngine:
    def test_all_rules_registered(self):
        ids = {r.rule_id for r in all_rules()}
        assert ids == EXPECTED_RULES
        assert all(r.description for r in all_rules())
        # The config rule only warns: AutoscalerConfig refuses the rest.
        assert _REGISTRY["RT007"].severity is Severity.WARNING

    def test_duplicate_rule_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_rule("PPG001", Severity.ERROR, (PPG,))(lambda o, c: [])

    def test_rules_for_dispatches_on_type(self):
        ppg_rules = {r.rule_id for r in rules_for(PPG("p"))}
        assert "PPG001" in ppg_rules and "RT002" not in ppg_rules
        graph_rules = {r.rule_id for r in rules_for(KernelGraph("g"))}
        assert "RT002" in graph_rules and "PPG001" not in graph_rules

    def test_diagnostic_render_and_dict(self):
        d = Diagnostic("PPG001", Severity.ERROR, "k/a->b", "boom", hint="fix")
        assert "ERROR" in d.render() and "PPG001" in d.render()
        assert d.to_dict() == {
            "rule": "PPG001",
            "severity": "error",
            "location": "k/a->b",
            "message": "boom",
            "hint": "fix",
        }

    def test_report_json_round_trips(self):
        report = run_lint(_bad_shape_kernel())
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert data["errors"] == len(report.errors) >= 1
        assert all({"rule", "severity", "location", "message"} <= set(d)
                   for d in data["diagnostics"])

    def test_rule_ids_filter(self):
        report = run_lint(_bad_shape_kernel(), rule_ids=["PPG002"])
        assert len(report) == 0

    def test_raise_if_errors(self):
        report = run_lint(_bad_shape_kernel())
        with pytest.raises(LintError, match="PPG001") as exc:
            report.raise_if_errors("test kernel")
        assert exc.value.report is report
        run_lint(small_kernel()).raise_if_errors()  # clean: no raise

    def test_crashing_rule_reported_not_raised(self):
        @register_rule("TST999", Severity.INFO, (PPG,))
        def broken(ppg, ctx):
            raise RuntimeError("kaput")

        try:
            report = run_lint(small_kernel().ppg, expand=False)
            crash = report.by_rule("LINT000")
            assert len(crash) == 1 and "TST999" in crash[0].message
        finally:
            del _REGISTRY["TST999"]


# ---------------------------------------------------------------------------
# pattern-layer rules
# ---------------------------------------------------------------------------


class TestPatternRules:
    def test_ppg001_shape_mismatch_fires(self):
        report = run_lint(_producer_consumer(Tensor("x_red", (512,))))
        assert [d.severity for d in report.by_rule("PPG001")] == [Severity.ERROR]
        assert not report.ok

    def test_ppg001_matching_shapes_clean(self):
        report = run_lint(_producer_consumer(Tensor("x_red", (1,))))
        assert not report.by_rule("PPG001") and report.ok

    def test_ppg002_dtype_mismatch_fires(self):
        report = run_lint(_producer_consumer(Tensor("x_red", (1,), "int8")))
        assert report.by_rule("PPG002") and not report.ok

    def test_ppg002_matching_dtypes_clean(self):
        report = run_lint(_producer_consumer(Tensor("x_red", (1,), "fp32")))
        assert not report.by_rule("PPG002")

    def test_ppg003_dangling_dependency_fires(self):
        # Consumer reads a tensor unrelated to the producer by name *and*
        # extent: the edge serializes the schedule for nothing.
        report = run_lint(_producer_consumer(Tensor("z", (2048,))))
        diags = report.by_rule("PPG003")
        assert diags and diags[0].severity == Severity.INFO
        assert report.ok  # informational only

    def test_ppg003_shared_stream_clean(self):
        # Consumer re-reads the producer's own input (in-place idiom used
        # by the bundled apps) — not a dangling dependency.
        report = run_lint(_producer_consumer(Tensor("x", (1024,))))
        assert not report.by_rule("PPG003")

    def test_ppg004_narrow_index_space_fires(self):
        s = Tensor("s", (1000,))
        ppg = PPG("sc")
        ppg.add_pattern(Scatter((s,), index_space=10))
        report = run_lint(ppg, expand=False)
        diags = report.by_rule("PPG004")
        assert diags and diags[0].severity == Severity.WARNING

    def test_ppg004_bijective_scatter_clean(self):
        s = Tensor("s", (1000,))
        ppg = PPG("sc")
        ppg.add_pattern(Scatter((s,), index_space=1000))
        assert not run_lint(ppg, expand=False).by_rule("PPG004")

    def test_ppg005_unordered_scatter_race_fires(self):
        s = Tensor("s", (64,))
        ppg = PPG("race")
        ppg.add_pattern(Scatter((s,)))
        ppg.add_pattern(Scatter((s,)))  # same output tensor 's_scat'
        report = run_lint(ppg, expand=False)
        assert report.by_rule("PPG005") and not report.ok

    def test_ppg005_ordered_scatters_clean(self):
        s = Tensor("s", (64,))
        ppg = PPG("race")
        a = ppg.add_pattern(Scatter((s,)))
        b = ppg.add_pattern(Scatter((s,)))
        ppg.connect(a, b)  # ordered by a dependency chain
        assert not run_lint(ppg, expand=False).by_rule("PPG005")

    def test_ppg006_oversized_intermediate_fires(self):
        x = Tensor("x", (64,))
        ppg = PPG("fuse")
        m1 = ppg.add_pattern(Map((x,)))
        m2 = ppg.add_pattern(Map((x,)))
        ppg.connect(m1, m2, bytes_moved=1 << 30)  # 1 GiB beats any SRAM
        diags = run_lint(ppg, expand=False).by_rule("PPG006")
        assert diags and diags[0].severity == Severity.INFO

    def test_ppg006_small_intermediate_clean(self):
        assert not run_lint(small_kernel(steps=4).ppg, expand=False).by_rule("PPG006")

    def test_ppg007_orphan_fires(self):
        x = Tensor("x", (64,))
        ppg = PPG("orph")
        m1 = ppg.add_pattern(Map((x,)))
        m2 = ppg.add_pattern(Map((x,)))
        ppg.connect(m1, m2)
        ppg.add_pattern(Map((Tensor("y", (8,)),)))  # never connected
        diags = run_lint(ppg, expand=False).by_rule("PPG007")
        assert len(diags) == 1

    def test_ppg007_single_pattern_is_not_an_orphan(self):
        assert not run_lint(small_kernel().ppg, expand=False).by_rule("PPG007")

    def test_connect_still_rejects_cycles_incrementally(self):
        x = Tensor("x", (64,))
        ppg = PPG("c")
        m1 = ppg.add_pattern(Map((x,)))
        m2 = ppg.add_pattern(Map((x,)))
        ppg.connect(m1, m2)
        with pytest.raises(ValueError, match="cycle"):
            ppg.connect(m2, m1)
        with pytest.raises(ValueError, match="cycle"):
            ppg.connect(m1, m1)  # self-loop


# ---------------------------------------------------------------------------
# optimization-layer rules
# ---------------------------------------------------------------------------


class TestOptimRules:
    def test_opt001_inapplicable_knob_fires(self):
        # Table I gives Map on GPU only work_group_size/unroll; a
        # scratchpad request is dead configuration.
        check = DesignCheck(
            small_kernel(), ImplConfig(use_scratchpad=True), AMD_W9100
        )
        report = run_lint(check)
        diags = report.by_rule("OPT001")
        assert diags and not report.ok
        assert "use_scratchpad" in diags[0].message

    def test_opt001_applicable_knob_clean(self):
        check = DesignCheck(small_kernel(), ImplConfig(unroll=4), AMD_W9100)
        assert run_lint(check).ok

    def test_opt002_fpga_oversubscription_fires(self):
        # 256 fp64 lanes need ~2048 DSPs; Arria 10 has 1518.
        check = DesignCheck(
            _big_fp64_kernel(),
            ImplConfig(unroll=32, compute_units=8),
            INTEL_ARRIA10,
        )
        report = run_lint(check)
        assert report.by_rule("OPT002") and not report.ok

    def test_opt002_modest_design_fits(self):
        check = DesignCheck(_big_fp64_kernel(), ImplConfig(), INTEL_ARRIA10)
        assert not run_lint(check).by_rule("OPT002")

    def test_opt002_ignores_gpus(self):
        check = DesignCheck(
            _big_fp64_kernel(), ImplConfig(unroll=32), AMD_W9100
        )
        assert not run_lint(check).by_rule("OPT002")

    def test_opt003_non_power_of_two_fires(self):
        check = DesignCheck(small_kernel(), ImplConfig(work_group_size=48), AMD_W9100)
        diags = run_lint(check).by_rule("OPT003")
        assert diags and diags[0].severity == Severity.WARNING

    def test_opt003_oversized_group_fires(self):
        tiny = small_kernel("tiny", elements=32)
        check = DesignCheck(tiny, ImplConfig(work_group_size=64), AMD_W9100)
        diags = run_lint(check).by_rule("OPT003")
        assert diags and "parallelism" in diags[0].message

    def test_opt003_sane_group_clean(self):
        check = DesignCheck(small_kernel(), ImplConfig(work_group_size=64), AMD_W9100)
        assert not run_lint(check).by_rule("OPT003")

    def test_opt004_explosion_fires_under_tight_budget(self):
        kernel = small_kernel("boom", elements=1 << 16, ops=16.0)
        ctx = LintContext(spec=AMD_W9100, config_budget=4)
        diags = run_lint(kernel, ctx).by_rule("OPT004")
        assert diags and diags[0].severity == Severity.WARNING
        assert "configs" in diags[0].message

    def test_opt004_count_matches_enumeration(self):
        kernel = small_kernel("boom", elements=1 << 16, ops=16.0)
        enumerated = len(enumerate_configs(kernel, AMD_W9100))
        ctx = LintContext(spec=AMD_W9100, config_budget=enumerated - 1)
        diags = run_lint(kernel, ctx).by_rule("OPT004")
        assert diags and f"enumerates {enumerated} configs" in diags[0].message
        # At exactly the enumerated count the budget is respected.
        ctx = LintContext(spec=AMD_W9100, config_budget=enumerated)
        assert not run_lint(kernel, ctx).by_rule("OPT004")

    def test_opt004_checks_every_context_spec(self):
        kernel = small_kernel("boom", elements=1 << 16, ops=16.0)
        ctx = LintContext(specs=(AMD_W9100, INTEL_ARRIA10), config_budget=1)
        locations = {d.location for d in run_lint(kernel, ctx).by_rule("OPT004")}
        assert len(locations) == 2

    def test_opt004_bundled_apps_within_default_budget(self):
        # The six Table-II apps must stay clean under the default budget;
        # if a new kernel trips this, shrink its knob lists (or raise
        # DEFAULT_CONFIG_BUDGET deliberately).
        from repro import apps as apps_mod
        from repro import runtime

        specs = tuple(runtime.setting("I", "Heter-Poly").platforms)
        for name in apps_mod.APP_BUILDERS:
            report = run_lint(apps_mod.build(name), LintContext(specs=specs))
            assert not report.by_rule("OPT004"), name


# ---------------------------------------------------------------------------
# runtime-layer rules
# ---------------------------------------------------------------------------


def _spaces_for(graph, platform, latency_ms, device_type=DeviceType.GPU):
    return {
        (name, platform): synthetic_space(
            name, platform, device_type, [(latency_ms, 50.0)]
        )
        for name in graph.kernel_names
    }


class TestRuntimeRules:
    def test_rt002_infeasible_qos_fires(self):
        graph = chain_graph(n=3)
        ctx = LintContext(
            design_spaces=_spaces_for(graph, "P", latency_ms=500.0), qos_ms=200.0
        )
        report = run_lint(graph, ctx, expand=False)
        diags = report.by_rule("RT002")
        assert diags and "lower bound" in diags[0].message and not report.ok

    def test_rt002_feasible_qos_clean(self):
        graph = chain_graph(n=3)
        ctx = LintContext(
            design_spaces=_spaces_for(graph, "P", latency_ms=10.0), qos_ms=200.0
        )
        assert not run_lint(graph, ctx, expand=False).by_rule("RT002")

    def test_rt003_missing_design_space_fires(self):
        graph = chain_graph(n=2)
        spaces = _spaces_for(graph, "P", latency_ms=10.0)
        del spaces[("K1", "P")]
        ctx = LintContext(design_spaces=spaces)
        report = run_lint(graph, ctx, expand=False)
        diags = report.by_rule("RT003")
        assert len(diags) == 1 and "K1" in diags[0].message and not report.ok

    def test_rt003_pool_platform_gap_fires(self):
        graph = chain_graph(n=2)
        ctx = LintContext(
            design_spaces=_spaces_for(graph, "P", latency_ms=10.0),
            devices=(DeviceSlot("d0", "OTHER", DeviceType.GPU),),
        )
        report = run_lint(graph, ctx, expand=False)
        assert len(report.by_rule("RT003")) == 2 and not report.ok

    def test_rt003_single_family_coverage_is_info(self):
        graph = chain_graph(n=1)
        ctx = LintContext(
            design_spaces=_spaces_for(graph, AMD_W9100.name, latency_ms=10.0),
            devices=(
                DeviceSlot("gpu0", AMD_W9100.name, DeviceType.GPU),
                DeviceSlot("fpga0", XILINX_7V3.name, DeviceType.FPGA),
            ),
        )
        report = run_lint(graph, ctx, expand=False)
        diags = report.by_rule("RT003")
        assert diags and all(d.severity == Severity.INFO for d in diags)
        assert report.ok

    def test_rt003_full_coverage_clean(self):
        graph = chain_graph(n=2)
        ctx = LintContext(
            design_spaces=_spaces_for(graph, AMD_W9100.name, latency_ms=10.0),
            devices=(DeviceSlot("gpu0", AMD_W9100.name, DeviceType.GPU),),
        )
        assert not run_lint(graph, ctx, expand=False).by_rule("RT003")


class TestAutoscalerConfigRule:
    def test_rt007_defaults_clean(self):
        report = run_lint(AutoscalerConfig(), LintContext())
        assert not report.by_rule("RT007") and report.ok

    def test_rt007_long_warmup_is_warning(self):
        report = run_lint(
            AutoscalerConfig(warmup_ms=20_000.0, eval_interval_ms=1000.0),
            LintContext(),
        )
        diags = report.by_rule("RT007")
        assert len(diags) == 1
        assert diags[0].severity == Severity.WARNING
        assert report.ok  # warnings do not fail the report

    def test_rt007_location_prefixed(self):
        report = run_lint(AutoscalerConfig(warmup_ms=20_000.0), LintContext())
        assert "autoscaler" in report.by_rule("RT007")[0].location


# ---------------------------------------------------------------------------
# gates: the DSE's validate=True and the scheduler admission check
# ---------------------------------------------------------------------------

BAD_KERNEL_SRC = """
kernel Bad {
    tensor x (1024) fp32
    tensor x_red (512) fp32
    pattern r = reduce(x) func=add
    pattern m = map(x_red) func=mul
    dep r -> m
}
"""


class TestGates:
    def test_built_kernel_lints_shape_mismatch(self):
        kernel = build_kernel(parse(BAD_KERNEL_SRC).kernels["Bad"])
        with pytest.raises(LintError, match="PPG001"):
            run_lint(kernel).raise_if_errors("kernel 'Bad'")

    def test_dse_validate_prunes_oversized_fpga_points(self):
        # The acceptance case: wide fp64 configs cannot place on Arria 10
        # and must be pruned before model evaluation.
        kernel = _big_fp64_kernel()
        space = explore_kernel(kernel, INTEL_ARRIA10, validate=True)
        assert space.pruned_invalid > 0
        baseline = explore_kernel(kernel, INTEL_ARRIA10)
        assert baseline.pruned_invalid == 0

    def test_prune_invalid_configs_reports_why(self):
        kernel = _big_fp64_kernel()
        configs = enumerate_configs(kernel, INTEL_ARRIA10)
        kept, report = prune_invalid_configs(kernel, INTEL_ARRIA10, configs)
        assert len(kept) < len(configs)
        assert report.by_rule("OPT002")

    def test_dse_validate_rejects_broken_kernel(self):
        with pytest.raises(LintError, match="PPG001"):
            explore_kernel(_bad_shape_kernel(), AMD_W9100, validate=True)

    def test_scheduler_admission_rejects_coverage_gap(self):
        graph = chain_graph(n=2)
        spaces = _spaces_for(graph, AMD_W9100.name, latency_ms=10.0)
        del spaces[("K1", AMD_W9100.name)]
        scheduler = PolyScheduler(spaces, latency_bound_ms=200.0)
        devices = [DeviceSlot("gpu0", AMD_W9100.name, DeviceType.GPU)]
        report = scheduler.admission_check(graph, devices)
        assert not report.ok and report.by_rule("RT003")

    def test_scheduler_admission_accepts_feasible_request(
        self, explored_small_spaces, two_device_slots
    ):
        kernel, spaces = explored_small_spaces
        graph = KernelGraph("ok")
        graph.add_kernel(kernel)
        scheduler = PolyScheduler(spaces, latency_bound_ms=200.0)
        assert scheduler.admission_check(graph, two_device_slots).ok
        schedule, _ = scheduler.schedule(graph, two_device_slots)
        assert schedule.assignments


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestLintCLI:
    def test_lint_single_app_ok(self, capsys):
        assert main(["lint", "--app", "asr"]) == 0
        out = capsys.readouterr().out
        assert "ASR" in out and "[OK]" in out

    def test_lint_json_round_trips(self, capsys):
        assert main(["lint", "--app", "asr", "--app", "ir", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert set(data["apps"]) == {"ASR", "IR"}

    def test_lint_unknown_app_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--app", "nope"])
        assert exc.value.code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert "unknown app 'NOPE'" in line

    def test_broken_pipe_exits_without_traceback(self, monkeypatch):
        """``repro lint --json | head``: the reader closing the pipe
        ends the command with exit code 1, not a BrokenPipeError."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["lint", "--app", "asr", "--json"]) == 1

    def test_lint_bad_app_exits_nonzero_with_error(self, capsys, monkeypatch):
        def build_bad():
            graph = KernelGraph("BAD")
            graph.add_kernel(_bad_shape_kernel("BAD"))
            return Application(
                name="BAD",
                full_name="Broken benchmark",
                graph=graph,
                design_targets={
                    "BAD": {DeviceType.GPU: 4, DeviceType.FPGA: 4}
                },
            )

        monkeypatch.setitem(apps_mod.APP_BUILDERS, "BAD", build_bad)
        assert main(["lint", "--app", "bad"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "ERROR" in out and "PPG001" in out


# ---------------------------------------------------------------------------
# property: lint-clean kernels survive DSE
# ---------------------------------------------------------------------------


class TestLintCleanProperty:
    @given(
        elements=st.sampled_from([256, 1024, 4096, 16384]),
        ops=st.floats(min_value=1.0, max_value=64.0),
        steps=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=10, deadline=None)
    def test_clean_kernel_never_raises_in_dse(self, elements, ops, steps):
        kernel = small_kernel("H", elements=elements, ops=ops, steps=steps)
        assert run_lint(kernel).ok
        space = explore_kernel(kernel, AMD_W9100, target_points=16, validate=True)
        assert len(space) > 0


# ---------------------------------------------------------------------------
# golden: the verdicts on the six bundled apps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("setting", LINT_SETTINGS)
def test_lint_dse_verdicts_match_golden(setting):
    """``repro lint --dse --json`` on every bundled app is clean and its
    diagnostics are the ones pinned in ``tests/golden/lint_digests.json``."""
    code, digest = run_lint_case(setting)
    assert code == 0
    assert digest == load(LINT_FILE)[setting]
