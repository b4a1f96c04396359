"""DVFS and idle-power state management.

Section VI-C attributes part of Heter-Poly's power savings to runtime
frequency control: boosting GPU/FPGA clocks under high load and, at low
load, dropping the GPU frequency and reconfiguring the FPGA with a
low-power kernel.  This module models the discrete operating points and
the idle states each device family supports.
"""

from __future__ import annotations

from typing import Tuple

from .specs import DeviceType

__all__ = ["DVFSPolicy"]


class DVFSPolicy:
    """Discrete DVFS ladder for a device, derived from its spec.

    GPUs expose several clock states with a meaningful idle-power spread
    (memory and core clocks drop together); FPGAs mainly trade the
    *loaded bitstream* — a low-power kernel gates most of the fabric.
    """

    #: Relative frequency levels, highest first.
    GPU_LEVELS: Tuple[float, ...] = (1.0, 0.8, 0.62, 0.45)
    FPGA_LEVELS: Tuple[float, ...] = (1.0, 0.75, 0.5)

    def __init__(self, spec) -> None:
        self.spec = spec
        self.device_type = spec.device_type

    @property
    def levels(self) -> Tuple[float, ...]:
        if self.device_type == DeviceType.GPU:
            return self.GPU_LEVELS
        return self.FPGA_LEVELS

    def idle_power_w(self, freq_scale: float = 1.0) -> float:
        """Idle power at a given DVFS level.

        GPU idle power tracks clocks super-linearly (voltage scales with
        frequency); FPGA static power barely moves with the clock, so
        its idle savings come from the low-power bitstream instead.
        """
        base = self.spec.idle_power_w
        if self.device_type == DeviceType.GPU:
            return base * (0.4 + 0.6 * freq_scale ** 2)
        return base * (0.85 + 0.15 * freq_scale)

    def low_power_state_w(self) -> float:
        """Deep-idle power: GPU at the lowest clocks, FPGA with a
        low-power bitstream that gates most of the fabric."""
        if self.device_type == DeviceType.GPU:
            return self.idle_power_w(self.levels[-1])
        return self.spec.idle_power_w * 0.45

    def pick_level(self, load: float) -> float:
        """Map an observed load fraction in [0,1] to a frequency level.

        High load boosts clocks immediately (QoS first); low load walks
        down the ladder — the behaviour Fig. 12 relies on.
        """
        load = min(max(load, 0.0), 1.0)
        # A level sustains roughly `level` of peak throughput; keep ~20%
        # headroom for bursts (queue-length reaction, Sec. VI-C) and pick
        # the lowest level that still clears the load.
        sustaining = [lv for lv in self.levels if lv * 0.8 >= load]
        return min(sustaining) if sustaining else self.levels[0]
