"""Tests for the OpenCL code generator and the CLI."""

import json

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
            ["simulate", "IR", "--rps", "30"],
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
        "argv",
        [["bench"], ["dse", "FQT", "--n-jobs", "2"], ["faults"], ["obs", "asr"],
         ["simulate", "asr", "30"]],
        ids=["bench", "dse-jobs-flag", "faults", "obs", "simulate-rps-positional"],
    )
    def test_removed_commands_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_simulate_json_row_carries_faults_only_with_a_schedule(self, capsys):
        rows = []
        for faults in ([], ["--crash", "fpga0@500"]):
            argv = ["simulate", "asr", "--ms", "1000", "--json", *faults]
            assert main(argv) == 0
            rows.append(json.loads(capsys.readouterr().out)["apps"]["ASR"])
        assert set(rows[0]) == {"availability", "p99_ms", "violations"}
        assert set(rows[0]) < set(rows[1])
        assert {"retries", "failovers", "recoveries"} <= set(rows[1])

    def test_simulate_gate_refuses_a_schedule_without_survivors(self, capsys):
        """RT004 on the node's device slots: with both GPUs of a
        Homo-GPU node dead for good, no kernel can run."""
        code = main(["simulate", "asr", "--system", "Homo-GPU", "--crash",
                     "gpu0@100", "--crash", "gpu1@100"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "RT004" in captured.err

    def test_cluster_traces_on_trace_out(self, tmp_path, capsys):
        """``--trace-out`` alone traces the fleet replay: it writes the
        event stream and the Perfetto trace there, names each on
        stderr, and leaves the ``--json`` stdout as it is untraced."""
        argv = ["cluster", "--hours", "1", "--json"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "trace"
        assert main([*argv, "--trace-out", str(out)]) == 0
        traced = capsys.readouterr()
        assert traced.out == plain
        names = ["events.jsonl", "trace.perfetto.json"]
        assert sorted(path.name for path in out.iterdir()) == names
        assert [line.split()[-1] for line in traced.err.splitlines()
                if "wrote" in line] == [str(out / name) for name in names]

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


#: Stand for an artifact directory under the test's ``tmp_path`` and for
#: an existing file there, in an argv.
OUT, FILE = "{out}", "{file}"


def _run(argv, tmp_path):
    """The exit code of ``repro`` on ``argv``, placeholders filled."""
    (tmp_path / "file").write_text("")
    paths = {OUT: str(tmp_path / "out"), FILE: str(tmp_path / "file")}
    try:
        return main([paths.get(a, a) for a in argv])
    except SystemExit as exc:
        return exc.code


def _sim(old_id, *argv, flag):
    """A refused ``repro simulate`` case, under the id it was recorded
    with while ``repro faults`` and ``repro obs`` were commands of their
    own and ``repro simulate`` took its rate as a positional argument."""
    return pytest.param(["simulate", *argv], flag, id=old_id)


def _cluster(old_id, *argv, flag):
    """A refused ``repro cluster`` case, under the id it was recorded
    with while ``--trace`` switched tracing on and ``--trace-out`` only
    named the directory."""
    return pytest.param(["cluster", *argv], flag, id=old_id)


class TestBadFlagValues:
    """A bad flag value, or a flag that would have no effect, is refused
    before any DSE runs: exit 2 and one stderr line naming the flag."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            _sim("faults --mtbf-ms 0---mtbf-ms", "asr", "--mtbf-ms", "0",
                 flag="--mtbf-ms"),
            _sim("faults --mttr-ms 0---mttr-ms", "asr", "--mtbf-ms", "1000",
                 "--mttr-ms", "0", flag="--mttr-ms"),
            _sim("faults --crash fpga0@-5---crash", "asr", "--crash",
                 "fpga0@-5", flag="--crash"),
            _sim("faults --crash fpga9@100---crash", "asr", "--crash",
                 "fpga9@100", flag="--crash"),
            _sim("obs asr --crash fpga9@100---crash", "asr", "--out-dir", OUT,
                 "--crash", "fpga9@100", flag="--crash"),
            _sim("obs asr --recover gpu7@100---recover", "asr", "--out-dir",
                 OUT, "--recover", "gpu7@100", flag="--recover"),
            (["cluster", "--compress", "0"], "--compress"),
            (["cluster", "--peak-rps", "-1"], "--peak-rps"),
            (["cluster", "--hours", "0"], "--hours"),
            (["cluster", "--interval-s", "0"], "--interval-s"),
            _sim("simulate asr 0-rps", "asr", "--rps", "0", flag="--rps"),
            _sim("faults --rps 0---rps", "asr", "--crash", "fpga0@100",
                 "--rps", "0", flag="--rps"),
            _sim("obs asr --ms 0---ms", "asr", "--out-dir", OUT, "--ms", "0",
                 flag="--ms"),
            (["cluster", "--peak-factor", "0"], "--peak-factor"),
            _sim("obs asr --sample-rate -0.5---sample-rate", "asr",
                 "--out-dir", OUT, "--sample-rate", "-0.5",
                 flag="--sample-rate"),
            _sim("obs asr --sample-top-k -1---sample-top-k", "asr",
                 "--out-dir", OUT, "--sample-top-k", "-1",
                 flag="--sample-top-k"),
            _cluster("cluster --trace --sample-rate 2---sample-rate",
                     "--trace-out", OUT, "--sample-rate", "2",
                     flag="--sample-rate"),
            _sim("simulate asr 0.01 --ms 1000---ms", "asr", "--rps", "0.01",
                 "--ms", "1000", flag="--ms"),
            _sim("faults --rps 0.01 --ms 1000 --crash fpga0@100---rps",
                 "asr", "--rps", "0.01", "--ms", "1000", "--crash",
                 "fpga0@100", flag="--rps"),
            _sim("obs asr --rps 0.01 --ms 1000---rps", "asr", "--out-dir", OUT,
                 "--rps", "0.01", "--ms", "1000", flag="--rps"),
            (["dse", "nope"], "'NOPE'"),
            (["schedule", "nope"], "'NOPE'"),
            _sim("simulate nope 10-'NOPE'", "nope", "--rps", "10",
                 flag="'NOPE'"),
            (["codegen", "nope", "k"], "'NOPE'"),
            (["lint", "--app", "asr", "--app", "nope"], "'NOPE'"),
            _sim("obs nope-'NOPE'", "nope", "--out-dir", OUT, flag="'NOPE'"),
            (["cluster", "--app", "nope"], "'NOPE'"),
            (["cluster", "--seed", "-1"], "--seed"),
            (["cluster", "--trace-seed", "-1"], "--trace-seed"),
            _cluster("cluster --trace --sample-rate 0.5 --sample-seed "
                     "-1---sample-seed", "--trace-out", OUT, "--sample-rate",
                     "0.5", "--sample-seed", "-1", flag="--sample-seed"),
            _sim("obs asr --sample-rate 0.5 --sample-seed -1---sample-seed",
                 "asr", "--out-dir", OUT, "--sample-rate", "0.5",
                 "--sample-seed", "-1", flag="--sample-seed"),
            _sim("obs asr --seed -1---seed", "asr", "--out-dir", OUT,
                 "--seed", "-1", flag="--seed"),
            _sim("faults --mtbf-ms 1000 --seed -1---seed", "asr",
                 "--mtbf-ms", "1000", "--seed", "-1", flag="--seed"),
            (["dse", "asr", "--strategy", "guided", "--budget", "0"],
             "--budget"),
            (["codegen", "asr", "LSTM_acoustic", "--wg", "0"],
             "work_group_size"),
            # Flags that would have no effect, and flags that conflict.
            (["simulate", "asr", "--mttr-ms", "500"], "--mttr-ms"),
            (["simulate", "asr", "--report"], "--report"),
            (["simulate", "asr", "--out-dir", OUT, "--window-ms", "500"],
             "--window-ms"),
            (["simulate", "asr", "--sample-rate", "0.5"], "--sample-rate"),
            (["simulate", "asr", "--sample-top-k", "3"], "--sample-top-k"),
            (["simulate", "asr", "--out-dir", OUT, "--sample-seed", "3"],
             "--sample-seed"),
            (["simulate", "asr", "--summary", "--json"], "--summary"),
            (["simulate", "asr", "--mtbf-ms", "1000", "--crash", "fpga0@100"],
             "--mtbf-ms"),
            (["cluster", "--trace-nodes"], "--trace-nodes"),
            (["cluster", "--sample-rate", "0.5"], "--sample-rate"),
            (["cluster", "--sample-seed", "3"], "--sample-seed"),
            (["cluster", "--trace-out", OUT, "--sample-seed", "3"],
             "--sample-seed"),
            # An artifact directory that cannot be created.
            (["simulate", "asr", "--out-dir", FILE], "--out-dir"),
            _cluster("cluster --trace --trace-out {file}---trace-out",
                     "--trace-out", FILE, flag="--trace-out"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_refused_before_dse(self, argv, flag, tmp_path, capsys, monkeypatch):
        def explore(*args, **kwargs):
            raise AssertionError("the DSE ran before the refusal")

        monkeypatch.setattr(Application, "explore", explore)
        code = _run(argv, tmp_path)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "Traceback" not in captured.err
        [line] = captured.err.splitlines()
        assert flag in line
        # Nothing is written before a refusal.
        assert not (tmp_path / "out").exists()

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
        assert main(["simulate", "asr", "--crash", "fpga0@1000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "available" in captured.out
