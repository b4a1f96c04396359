"""Fig. 12 — trace-driven power savings and QoS violations (Section VI-C).

Replays the (synthetic) 24-hour utilization trace against the three
Setting-I systems running ASR and reports the per-interval node power,
total energy and QoS-violation ratios.  Shapes to reproduce: Homo-GPU
draws the most power in almost every interval, Heter-Poly the least;
Heter-Poly's p99 stays under 200 ms.  The paper's <6% model error is
the simulator's injected execution noise (4% log-normal), not a
measured output.
"""

from __future__ import annotations

from typing import Dict


from ..runtime import run_simulation, trace_arrivals
from ..runtime.trace import UtilizationTrace, synthesize_google_trace
from .harness import SYSTEM_NAMES, get_app, render_table, spaces_for, systems

__all__ = ["run", "render"]


def run(
    trace: UtilizationTrace = None,
    peak_rps: float = 30.0,
    compress: int = 24,
    app_name: str = "ASR",
) -> Dict:
    """Replay the trace (time-compressed by ``compress`` for speed: each
    trace interval is simulated for interval_s/compress seconds)."""
    if trace is None:
        trace = synthesize_google_trace()
    app = get_app(app_name)
    archs = systems("I")

    interval_ms = trace.interval_s * 1000.0 / compress
    out: Dict[str, Dict] = {}
    for sys_name in SYSTEM_NAMES:
        system = archs[sys_name]
        arrivals = trace_arrivals(trace.utilization, interval_ms, peak_rps)
        result = run_simulation(
            system,
            app,
            spaces_for(app, system),
            arrivals,
            bin_ms=interval_ms,
            warmup_frac=0.02,
        )
        lats = result.latencies_ms()
        out[sys_name] = {
            "power_series_w": result.power_bins_w.tolist(),
            "avg_power_w": result.avg_power_w,
            "energy_j": result.energy_j,
            "p99_ms": result.p99_ms,
            "violations": result.qos_violations(app.qos_ms),
            "requests": len(lats),
        }
    gpu_e = out["Homo-GPU"]["energy_j"]
    fpga_e = out["Homo-FPGA"]["energy_j"]
    poly_e = out["Heter-Poly"]["energy_j"]
    out["summary"] = {
        "poly_saving_vs_gpu": 1.0 - poly_e / gpu_e,
        "poly_saving_vs_fpga": 1.0 - poly_e / fpga_e,
    }
    return out


def render(data: Dict) -> str:
    rows = []
    for name in SYSTEM_NAMES:
        d = data[name]
        rows.append(
            (
                name,
                f"{d['avg_power_w']:.0f}",
                f"{d['energy_j']/1000:.1f}",
                f"{d['p99_ms']:.0f}",
                f"{d['violations']*100:.2f}%",
            )
        )
    table = render_table(
        ("system", "avg W", "energy kJ", "p99 ms", "QoS violations"),
        rows,
        "Fig. 12: trace-driven 24h replay (time-compressed)",
    )
    s = data["summary"]
    return (
        table
        + f"\nHeter-Poly energy saving: {s['poly_saving_vs_gpu']*100:.0f}% vs "
        + f"Homo-GPU, {s['poly_saving_vs_fpga']*100:.0f}% vs Homo-FPGA"
    )
