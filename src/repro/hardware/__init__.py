"""Hardware layer: platform specs and analytical performance/power models.

Implements the modelling substrate the paper relies on (Section IV-C):
GPU specs from Table IV with a Hong&Kim-style analytical model, FPGA
specs from Table V with a FlexCL-style latency/resource/power model, a
PCIe transfer model for inter-kernel data movement, and DVFS/idle-state
management for the runtime power control of Section VI-C.  Each device
model has one latency/power implementation, the vectorized
``estimate_batch``, which both the DSE and the simulator read.
"""

from .config import ImplConfig
from .dvfs import DVFSPolicy
from .fpga_model import FPGAModel, ResourceUsage
from .gpu_model import GPUModel
from .model_cache import ModelEvalCache, clear_model_cache, model_cache
from .pcie import PCIeLink
from .specs import (
    AMD_W9100,
    FPGA_SPECS,
    GPU_SPECS,
    INTEL_ARRIA10,
    NVIDIA_K20,
    XILINX_7V3,
    XILINX_ZCU102,
    DeviceType,
    FPGASpec,
    GPUSpec,
    spec_by_name,
)

__all__ = [
    "DeviceType",
    "GPUSpec",
    "FPGASpec",
    "AMD_W9100",
    "NVIDIA_K20",
    "XILINX_ZCU102",
    "XILINX_7V3",
    "INTEL_ARRIA10",
    "GPU_SPECS",
    "FPGA_SPECS",
    "spec_by_name",
    "ImplConfig",
    "GPUModel",
    "FPGAModel",
    "ResourceUsage",
    "PCIeLink",
    "DVFSPolicy",
    "ModelEvalCache",
    "model_cache",
    "clear_model_cache",
]


def model_for(spec):
    """Instantiate the right analytical model for a platform spec."""
    if spec.device_type == DeviceType.GPU:
        return GPUModel(spec)
    return FPGAModel(spec)
