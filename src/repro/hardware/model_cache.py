"""One batch analytical-model evaluation per DSE config batch.

The DSE evaluates each (kernel, platform, config batch) with a single
call to the vectorized device models and keeps no estimate past it:
no memo table sits in front of the models.  The names here are kept
only because the benchmark (``bench/``) imports them: it wraps
:meth:`ModelEvalCache.evaluate_many` as its ``hardware.model_eval``
stage and reads :attr:`ModelEvalCache.misses` as its evaluation count.
The benchmark change that ROADMAP item 12 describes renames them.
Callers look the method up on :data:`model_cache` at call time, so the
benchmark's wrapper sees every call.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..patterns.ppg import Kernel
from .config import ImplConfig
from .fpga_model import FPGAModel
from .gpu_model import GPUModel
from .specs import DeviceType

__all__ = ["ModelEvalCache", "clear_model_cache", "model_cache"]


class ModelEvalCache:
    """The batch model call, and a count of the configs it evaluated.

    ``misses`` counts every config evaluated; ``hits`` is always 0.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def evaluate_many(
        self, kernel: Kernel, spec, configs: Sequence[ImplConfig], batch: int = 1
    ) -> Tuple[List[bool], List[float], List[float]]:
        """Feasibility, latency and power of ``configs`` in one
        :meth:`~repro.hardware.gpu_model.GPUModel.estimate_batch` /
        :meth:`~repro.hardware.fpga_model.FPGAModel.estimate_batch`
        call, as Python values aligned with ``configs``.

        GPU configs are all feasible; infeasible FPGA rows carry NaN.
        The floats are those of the scalar models.
        """
        if spec.device_type == DeviceType.FPGA:
            feasible, latency, power = FPGAModel(spec).estimate_batch(
                kernel, configs, batch
            )
            ok = feasible.tolist()
        else:
            latency, power = GPUModel(spec).estimate_batch(kernel, configs, batch)
            ok = [True] * len(configs)
        self.misses += len(configs)
        return ok, latency.tolist(), power.tolist()


#: The instance the DSE calls.
model_cache = ModelEvalCache()


def clear_model_cache() -> None:
    """Reset the evaluation count."""
    model_cache.misses = 0
