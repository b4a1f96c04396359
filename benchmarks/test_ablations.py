"""Ablation benchmarks — the design choices DESIGN.md calls out.

Each ablation disables one Poly mechanism and measures what it buys on
ASR/Setting-I, quantifying the contribution of:

* the **energy-optimization step** (Step 2) — schedule energy;
* **pattern fusion** in the DSE — best achievable latency;
* the **DVFS/low-power idle management** — low-load node power;
* **GPU batching** — sustained throughput under QoS;
* the **guided search** in place of exhaustive enumeration — DSE wall
  time and model evaluations at a bounded hypervolume loss.
"""

import statistics
import time

import numpy as np
import pytest
from conftest import run_once

from repro import apps, runtime
from repro.hardware import ImplConfig, model_for
from repro.optim import KnobSpace, SearchConfig, explore_application, space_hypervolume
from repro.scheduler import DeviceSlot, PolyScheduler

#: Knob-space enlargement for the guided-search ablation: a 20-step
#: frequency ladder and 8 work-group sizes, the inputs of the guided ops
#: of ``bench/workloads.py`` (``SEARCH_OVERRIDES``).  Both knobs exist
#: on every device family, so each per-device space grows >=10x.
GUIDED_OVERRIDES = {
    "freq_scale": tuple(round(float(v), 4) for v in np.linspace(0.3, 1.0, 20)),
    "work_group_size": (32, 64, 96, 128, 192, 256, 384, 512),
}


@pytest.fixture(scope="module")
def asr():
    app = apps.build("ASR")
    system = runtime.setting("I", "Heter-Poly")
    spaces = app.explore(system.platforms)
    return app, system, spaces


def test_ablation_energy_step(benchmark, asr):
    """Step 2 ablation: scheduling with latency optimization only."""
    app, system, spaces = asr
    devices = [
        DeviceSlot(device_id, spec.name, spec.device_type)
        for device_id, spec in system.device_inventory()
    ]
    scheduler = PolyScheduler(spaces, app.qos_ms)

    def run():
        with_e, _ = scheduler.schedule(app.graph, list(devices))
        without_e, _ = scheduler.schedule(
            app.graph, list(devices), optimize_energy=False
        )
        return with_e, without_e

    with_e, without_e = run_once(benchmark, run)
    saving = 1.0 - with_e.total_energy_mj / without_e.total_energy_mj
    print(
        f"\nAblation (energy step): schedule energy "
        f"{without_e.total_energy_mj:.0f} -> {with_e.total_energy_mj:.0f} mJ "
        f"({saving*100:.0f}% saved), makespan "
        f"{without_e.makespan_ms:.1f} -> {with_e.makespan_ms:.1f} ms"
    )
    # Step 2 must save energy by spending (bounded) latency.
    assert with_e.total_energy_mj < without_e.total_energy_mj
    assert with_e.makespan_ms <= app.qos_ms


def test_ablation_fusion(benchmark, asr):
    """Fusion ablation: per-kernel latency with and without fusion,
    evaluated at an optimized operating point across all six apps (the
    paper's Map+Reduce fusion example saves the global-memory bounce)."""
    _, system, _ = asr
    gpu_cfg = ImplConfig(
        work_group_size=256, unroll=8, use_scratchpad=False, pipelined=True
    )
    fpga_cfg = ImplConfig(
        unroll=16, compute_units=4, pipelined=True, bram_ports=16,
        double_buffer=True,
    )

    def run():
        deltas = {}
        for app_name in ("ASR", "FQT", "IR", "CS", "MF", "WT"):
            app = apps.build(app_name)
            for spec in system.platforms:
                model = model_for(spec)
                cfg = gpu_cfg if spec.device_type.value == "gpu" else fpga_cfg
                for kernel in app.kernels:
                    if kernel.intermediate_bytes < (1 << 22):
                        continue  # fusion is about big intermediates
                    import dataclasses

                    plain = model.estimate(
                        kernel, dataclasses.replace(cfg, fused=False)
                    ).latency_ms
                    fused = model.estimate(
                        kernel, dataclasses.replace(cfg, fused=True)
                    ).latency_ms
                    deltas[(kernel.name, spec.device_type.value)] = (plain, fused)
        return deltas

    deltas = run_once(benchmark, run)
    print("\nAblation (fusion): unfused -> fused latency (ms)")
    for (kname, dev), (plain, fused) in deltas.items():
        print(f"  {kname:18s} {dev:4s} {plain:8.2f} -> {fused:8.2f}")
    assert deltas, "no kernel exercised fusion"
    # Fusion helps substantially somewhere; it may cost where the larger
    # on-chip buffers derate the FPGA clock (the DSE explores both
    # variants, so regressions never reach the Pareto frontier).
    assert any(fused < plain * 0.95 for plain, fused in deltas.values())
    assert all(fused <= plain * 1.5 for plain, fused in deltas.values())


def test_ablation_idle_management(benchmark, asr):
    """DVFS/low-power ablation: Poly node vs the same hardware with
    static full-clock idling (approximated by the static policy's idle
    accounting on identical inventory)."""
    app, system, spaces = asr
    import dataclasses

    static_system = dataclasses.replace(
        system,
        codename="Heter-Static-Idle",
        policy=runtime.SchedulingPolicy.STATIC,
    )

    def run():
        arr = runtime.poisson_arrivals(8.0, 6000.0)
        managed = runtime.run_simulation(system, app, spaces, arr)
        unmanaged = runtime.run_simulation(static_system, app, spaces, arr)
        return managed.avg_power_w, unmanaged.avg_power_w

    managed_w, unmanaged_w = run_once(benchmark, run)
    print(
        f"\nAblation (idle management): low-load node power "
        f"{unmanaged_w:.0f} W (static idle) -> {managed_w:.0f} W (Poly DVFS)"
    )
    assert managed_w < unmanaged_w * 0.95


def test_ablation_gpu_batching(benchmark, asr):
    """Batching ablation: per-request GPU cost at batch 1 vs batch 8
    for the batched kernels (the capacity GPU batching buys)."""
    app, system, spaces = asr
    gpu_spec = system.gpu_spec
    model = model_for(gpu_spec)

    def run():
        out = {}
        for kernel in app.kernels:
            point = spaces[(kernel.name, gpu_spec.name)].min_latency()
            l1 = model.estimate(kernel, point.config, 1).latency_ms
            l8 = model.estimate(kernel, point.config, 8).latency_ms
            out[kernel.name] = (l1, l8 / 8.0)
        return out

    costs = run_once(benchmark, run)
    print("\nAblation (GPU batching): per-request cost, batch1 -> batch8 (ms)")
    for name, (c1, c8) in costs.items():
        print(f"  {name:18s} {c1:8.2f} -> {c8:8.2f} ({c1/c8:.1f}x)")
    # The recurrent kernels amortize several-fold.
    lstm1, lstm8 = costs["LSTM_acoustic"]
    assert lstm1 / lstm8 > 2.0


def test_ablation_guided_search(benchmark, asr):
    """Guided-search ablation: exhaustive enumeration vs. the budgeted
    successive-halving + genetic search on the enlarged ASR space.

    Three exhaustive/guided pairs each time both sides, every model
    evaluation included (the DSE keeps no estimate between runs), so the
    speedup is a median of paired ratios.  Every guided front is scored
    against 1.05x the worst corner of its exhaustive space.
    """
    app, system, _ = asr
    search = SearchConfig(max_evals=512, seed=0)
    # Exhaustive enumeration evaluates every config of every space.
    exhaustive_evals = sum(
        len(KnobSpace(kernel, spec, GUIDED_OVERRIDES))
        for kernel in app.kernels
        for spec in system.platforms
    )

    def timed(strategy, **kwargs):
        start = time.perf_counter()
        spaces = explore_application(
            app.kernels, system.platforms, strategy=strategy,
            candidate_overrides=GUIDED_OVERRIDES, **kwargs,
        )
        return time.perf_counter() - start, spaces

    def run():
        speedups = []
        for _ in range(3):
            exhaustive_s, exhaustive = timed("exhaustive")
            guided_s, guided = timed("guided", search=search)
            speedups.append(exhaustive_s / guided_s)
        return speedups, exhaustive, guided

    speedups, exhaustive, guided = run_once(benchmark, run)
    ratios = {}
    for key, ex_space in exhaustive.items():
        reference = (
            1.05 * max(p.latency_ms for p in ex_space),
            1.05 * max(p.power_w for p in ex_space),
        )
        ratios[key] = space_hypervolume(guided[key], reference) / space_hypervolume(
            ex_space, reference
        )
    guided_evals = sum(s.search_stats.evaluations for s in guided.values())
    speedup = statistics.median(speedups)
    print(
        f"\nAblation (guided search): {speedup:.2f}x median speedup "
        f"(pairs {', '.join(f'{x:.2f}x' for x in speedups)}), "
        f"evaluations {exhaustive_evals} -> {guided_evals} "
        f"({exhaustive_evals / guided_evals:.1f}x fewer), "
        f"min hypervolume ratio {min(ratios.values()):.4f}"
    )
    assert speedup >= 1.2
    for key, ratio in ratios.items():
        assert ratio >= 0.99, (key, ratio)
