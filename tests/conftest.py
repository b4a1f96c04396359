"""Shared test fixtures: small kernels, design spaces, devices."""

import pytest

from repro.hardware import AMD_W9100, XILINX_7V3, ImplConfig
from repro.hardware.specs import DeviceType
from repro.optim import DesignPoint, KernelDesignSpace, explore_kernel
from repro.patterns import Kernel, Map, Pipeline, PPG, Tensor
from repro.scheduler import DeviceSlot, KernelGraph


def small_kernel(name="K", elements=4096, ops=8.0, steps=1):
    """A small Map(+Pipeline) kernel for unit tests."""
    x = Tensor(f"{name}_x", (elements,), "fp32")
    ppg = PPG(name)
    m = ppg.add_pattern(Map((x,), func="mac", ops_per_element=ops))
    if steps > 1:
        p = ppg.add_pattern(
            Pipeline((x,), stages=("a", "b"), ops_per_stage=1.0, iterations=steps)
        )
        ppg.connect(m, p)
    return Kernel(name, ppg)


def fp64_kernel(name="big"):
    """A wide fp64 Map whose widest FPGA configs over-subscribe an
    Arria 10's DSPs."""
    x = Tensor(f"{name}_x", (1 << 20,), "fp64")
    ppg = PPG(name)
    ppg.add_pattern(Map((x,), func="mac", ops_per_element=64.0))
    return Kernel(name, ppg)


def chain_graph(n=3, elements=4096):
    """A linear n-kernel application graph."""
    graph = KernelGraph("chain")
    names = []
    for i in range(n):
        k = small_kernel(f"K{i}", elements=elements, ops=4.0 * (i + 1))
        graph.add_kernel(k)
        names.append(k.name)
    for a, b in zip(names, names[1:]):
        graph.connect(a, b)
    return graph


def synthetic_point(kernel_name, platform, device_type, latency, power, index=0):
    """Hand-built design point (no model evaluation needed)."""
    return DesignPoint(
        kernel_name=kernel_name,
        platform=platform,
        device_type=device_type,
        config=ImplConfig(),
        latency_ms=latency,
        power_w=power,
        index=index,
    )


def synthetic_space(kernel_name, platform, device_type, points):
    """Design space from (latency, power) tuples."""
    return KernelDesignSpace(
        kernel_name,
        platform,
        device_type,
        [
            synthetic_point(kernel_name, platform, device_type, lat, pw)
            for lat, pw in points
        ],
    )


@pytest.fixture
def lstm_like_kernel():
    return small_kernel("LSTM", elements=65536, ops=64.0, steps=100)


@pytest.fixture
def gpu_spec():
    return AMD_W9100


@pytest.fixture
def fpga_spec():
    return XILINX_7V3


@pytest.fixture
def two_device_slots():
    return [
        DeviceSlot("gpu0", AMD_W9100.name, DeviceType.GPU),
        DeviceSlot("fpga0", XILINX_7V3.name, DeviceType.FPGA),
    ]


@pytest.fixture(scope="session")
def explored_small_spaces():
    """Real DSE output for a small kernel on both platforms (shared —
    exploration is the slow part)."""
    k = small_kernel("S", elements=16384, ops=16.0, steps=4)
    return k, {
        (k.name, AMD_W9100.name): explore_kernel(k, AMD_W9100, target_points=32),
        (k.name, XILINX_7V3.name): explore_kernel(k, XILINX_7V3, target_points=32),
    }
