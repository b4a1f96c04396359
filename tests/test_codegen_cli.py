"""Tests for the OpenCL code generator and the CLI."""

import pytest

from conftest import small_kernel
from repro import apps, runtime
from repro.apps.base import Application
from repro.cli import build_parser, main
from repro.codegen import generate_host_snippet, generate_kernel_source
from repro.hardware import ImplConfig
from repro.hardware.specs import DeviceType
from repro.patterns import Gather, Kernel, Map, PPG, Reduce, Tensor


def _gather_kernel():
    x = Tensor("x", (4096,))
    ppg = PPG("g")
    g = ppg.add_pattern(Gather((x,)))
    m = ppg.add_pattern(Map((x,), func="mul", ops_per_element=2.0))
    ppg.connect(g, m)
    return Kernel("g", ppg)


class TestCodegen:
    def test_gpu_source_structure(self):
        k = small_kernel("K")
        src = generate_kernel_source(k, ImplConfig(), DeviceType.GPU)
        assert "__kernel void" in src
        assert "get_global_id" in src
        assert "reqd_work_group_size" in src

    def test_coalescing_remap_emitted(self):
        k = _gather_kernel()
        plain = generate_kernel_source(k, ImplConfig(), DeviceType.GPU)
        coal = generate_kernel_source(
            k, ImplConfig(memory_coalescing=True), DeviceType.GPU
        )
        assert "memory coalescing" not in plain
        assert "memory coalescing" in coal

    def test_scratchpad_uses_local(self):
        k = small_kernel("K")
        src = generate_kernel_source(
            k, ImplConfig(use_scratchpad=True), DeviceType.GPU
        )
        assert "__local" in src
        assert "barrier(CLK_LOCAL_MEM_FENCE)" in src

    def test_gpu_unroll_pragma(self):
        k = small_kernel("K")
        src = generate_kernel_source(k, ImplConfig(unroll=8), DeviceType.GPU)
        assert "#pragma unroll 8" in src

    def test_fpga_pipeline_and_units(self):
        k = small_kernel("K")
        src = generate_kernel_source(
            k,
            ImplConfig(pipelined=True, compute_units=4, bram_ports=8),
            DeviceType.FPGA,
        )
        assert "xcl_pipeline_loop" in src
        assert "num_compute_units(4)" in src
        assert "xcl_array_partition(cyclic, 8)" in src

    def test_fused_emits_single_kernel(self):
        k = _gather_kernel()
        fused = generate_kernel_source(k, ImplConfig(fused=True), DeviceType.FPGA)
        split = generate_kernel_source(k, ImplConfig(fused=False), DeviceType.FPGA)
        assert fused.count("__kernel void") == 1
        assert split.count("__kernel void") == 2
        assert "fused pattern" in fused

    def test_reduce_emits_tree_reduction(self):
        x = Tensor("x", (1024,))
        ppg = PPG("r")
        ppg.add_pattern(Reduce((x,), func="add"))
        src = generate_kernel_source(Kernel("r", ppg), ImplConfig(), DeviceType.GPU)
        assert "work_group_reduce_add" in src

    def test_dtype_mapping(self):
        x = Tensor("x", (64,), "fp16")
        ppg = PPG("h")
        ppg.add_pattern(Map((x,)))
        src = generate_kernel_source(Kernel("h", ppg), ImplConfig(), DeviceType.GPU)
        assert "half" in src

    def test_host_snippet_rounds_global_size(self):
        k = small_kernel("K", elements=1000)
        snippet = generate_host_snippet(k, ImplConfig(work_group_size=128), DeviceType.GPU)
        assert "local_size = 128" in snippet
        # 1000 rounded up to a multiple of 128 = 1024
        assert "global_size = 1024" in snippet

    def test_host_snippet_dvfs_hint(self):
        k = small_kernel("K")
        snippet = generate_host_snippet(
            k, ImplConfig(freq_scale=0.62), DeviceType.GPU
        )
        assert "62%" in snippet


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        for argv in (
            ["dse", "FQT"],
            ["schedule", "ASR", "--setting", "II"],
            ["simulate", "IR", "30"],
            ["codegen", "ASR", "LSTM_acoustic", "--fpga", "--unroll", "4"],
            ["figure", "fig11"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def _dse_lines(self, capsys, argv):
        assert main(argv) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        app = apps.build(argv[1])
        platforms = runtime.setting("I", "Heter-Poly").platforms
        assert header.startswith(f"{app} on Setting-I")
        assert len(lines) == len(app.kernels) * len(platforms)
        return lines

    def test_dse_exhaustive_runs(self, capsys):
        lines = self._dse_lines(capsys, ["dse", "FQT"])
        assert not any("[guided:" in line for line in lines)

    def test_dse_guided_runs(self, capsys):
        lines = self._dse_lines(
            capsys,
            ["dse", "MF", "--strategy", "guided", "--budget", "64",
             "--search-seed", "0"],
        )
        assert all("[guided: " in line and line.endswith("]") for line in lines)

    @pytest.mark.parametrize(
        "argv", [["bench"], ["dse", "FQT", "--n-jobs", "2"]],
        ids=["bench", "dse-jobs-flag"],
    )
    def test_removed_commands_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_figure_unknown_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig99"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert "invalid choice: 'fig99'" in line

    def test_figure_fig11_runs(self, capsys):
        assert main(["figure", "fig11"]) == 0
        assert "utilization trace" in capsys.readouterr().out

    def test_codegen_runs(self, capsys):
        rc = main(
            ["codegen", "FQT", "PRNG", "--fpga", "--pipeline", "--unroll", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "__kernel" in out
        assert "xcl_pipeline_loop" in out

    def test_codegen_unknown_kernel(self, capsys):
        assert main(["codegen", "FQT", "Ghost"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert "unknown kernel 'Ghost'" in line


class TestBadFlagValues:
    """A bad flag value is refused before any DSE runs: exit 2 and one
    stderr line naming the flag."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["faults", "--mtbf-ms", "0"], "--mtbf-ms"),
            (["faults", "--mttr-ms", "0"], "--mttr-ms"),
            (["faults", "--crash", "fpga0@-5"], "--crash"),
            (["faults", "--crash", "fpga9@100"], "--crash"),
            (["obs", "asr", "--crash", "fpga9@100"], "--crash"),
            (["obs", "asr", "--recover", "gpu7@100"], "--recover"),
            (["cluster", "--compress", "0"], "--compress"),
            (["cluster", "--peak-rps", "-1"], "--peak-rps"),
            (["cluster", "--hours", "0"], "--hours"),
            (["cluster", "--interval-s", "0"], "--interval-s"),
            (["simulate", "asr", "0"], "rps"),
            (["faults", "--rps", "0"], "--rps"),
            (["obs", "asr", "--ms", "0"], "--ms"),
            (["cluster", "--peak-factor", "0"], "--peak-factor"),
            (["obs", "asr", "--sample-rate", "-0.5"], "--sample-rate"),
            (["obs", "asr", "--sample-top-k", "-1"], "--sample-top-k"),
            (["cluster", "--trace", "--sample-rate", "2"], "--sample-rate"),
            (["simulate", "asr", "0.01", "--ms", "1000"], "--ms"),
            (["faults", "--rps", "0.01", "--ms", "1000",
              "--crash", "fpga0@100"], "--rps"),
            (["obs", "asr", "--rps", "0.01", "--ms", "1000"], "--rps"),
            (["faults", "--app", "asr", "--app", "nope",
              "--crash", "fpga0@100"], "'NOPE'"),
            (["dse", "nope"], "'NOPE'"),
            (["schedule", "nope"], "'NOPE'"),
            (["simulate", "nope", "10"], "'NOPE'"),
            (["codegen", "nope", "k"], "'NOPE'"),
            (["lint", "--app", "asr", "--app", "nope"], "'NOPE'"),
            (["obs", "nope"], "'NOPE'"),
            (["cluster", "--app", "nope"], "'NOPE'"),
            (["cluster", "--seed", "-1"], "--seed"),
            (["cluster", "--trace-seed", "-1"], "--trace-seed"),
            (["cluster", "--trace", "--sample-rate", "0.5",
              "--sample-seed", "-1"], "--sample-seed"),
            (["obs", "asr", "--sample-rate", "0.5", "--sample-seed", "-1"],
             "--sample-seed"),
            (["obs", "asr", "--seed", "-1"], "--seed"),
            (["faults", "--mtbf-ms", "1000", "--seed", "-1"], "--seed"),
            (["dse", "asr", "--strategy", "guided", "--budget", "0"],
             "--budget"),
            (["codegen", "asr", "LSTM_acoustic", "--wg", "0"],
             "work_group_size"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_refused_before_dse(self, argv, flag, capsys, monkeypatch):
        def explore(*args, **kwargs):
            raise AssertionError("the DSE ran before the refusal")

        monkeypatch.setattr(Application, "explore", explore)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "Traceback" not in captured.err
        [line] = captured.err.splitlines()
        assert flag in line

    def test_cluster_refuses_an_empty_replay_stream(self, capsys):
        """A peak rate too small for one arrival over the trace: one
        stderr line, exit 2, no traceback."""
        code = main(["cluster", "--peak-rps", "0.0001", "--hours", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "Traceback" not in captured.err
        [line] = captured.err.splitlines()
        assert "--peak-rps" in line and "--hours" in line

    def test_faults_run_with_survivors_is_silent_on_stderr(self, capsys):
        assert main(["faults", "--app", "asr", "--crash", "fpga0@1000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "availability" in captured.out
