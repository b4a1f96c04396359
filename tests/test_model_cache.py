"""Model-evaluation cache: keying, hits, invalidation, DSE wiring."""

import math

import pytest

from conftest import small_kernel
from repro.hardware import (
    AMD_W9100,
    XILINX_7V3,
    FPGAModel,
    GPUModel,
    ImplConfig,
    ModelEvalCache,
    clear_model_cache,
    kernel_signature,
    model_cache,
)
from repro.hardware.specs import DeviceType
from repro.optim import explore_kernel


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts and ends with an empty shared cache."""
    clear_model_cache()
    yield
    clear_model_cache()


class TestKeying:
    def test_rebuilt_kernel_same_signature(self):
        """Structurally identical kernels share cache entries."""
        assert kernel_signature(small_kernel("K")) == kernel_signature(
            small_kernel("K")
        )

    def test_workload_change_changes_signature(self):
        assert kernel_signature(
            small_kernel("K", elements=1024)
        ) != kernel_signature(small_kernel("K", elements=2048))

    def test_name_change_changes_signature(self):
        assert kernel_signature(small_kernel("A")) != kernel_signature(
            small_kernel("B")
        )

    def test_bias_mutation_invalidates(self):
        """In-place calibration-bias edits must miss the old entries."""
        kernel = small_kernel("K")
        cache = ModelEvalCache()
        config = ImplConfig()
        first = cache.evaluate(kernel, AMD_W9100, config)
        kernel.platform_bias[DeviceType.GPU] = 2.0
        second = cache.evaluate(kernel, AMD_W9100, config)
        assert cache.misses == 2 and cache.hits == 0
        assert second.latency_ms > first.latency_ms

    def test_bias_rebinding_rekeys(self):
        """Rebinding the bias table re-keys the kernel's memoized
        signature; restoring the table restores the key."""
        kernel = small_kernel("K")
        before = kernel_signature(kernel)
        kernel.platform_bias = {DeviceType.GPU: 2.0}
        assert kernel_signature(kernel) != before
        kernel.platform_bias = {}
        assert kernel_signature(kernel) == before


class TestHitsAndMisses:
    def test_hit_returns_identical_estimate(self):
        kernel = small_kernel("K")
        cache = ModelEvalCache()
        config = ImplConfig(unroll=2)
        miss = cache.evaluate(kernel, AMD_W9100, config)
        hit = cache.evaluate(kernel, AMD_W9100, config)
        assert miss == hit
        assert cache.hits == 1 and cache.misses == 1
        assert cache.stats()["hit_rate"] == pytest.approx(0.5)

    def test_matches_direct_model(self):
        kernel = small_kernel("K")
        cache = ModelEvalCache()
        config = ImplConfig(unroll=4, pipelined=True)
        cached = cache.evaluate(kernel, AMD_W9100, config)
        direct = GPUModel(AMD_W9100).estimate(kernel, config)
        assert cached.feasible
        assert cached.latency_ms == direct.latency_ms
        assert cached.active_power_w == direct.active_power_w

    def test_infeasible_fpga_points_cached(self):
        kernel = small_kernel("K", elements=1 << 16, ops=64.0)
        cache = ModelEvalCache()
        config = next(
            ImplConfig(unroll=u, compute_units=c)
            for u in (256, 64, 32)
            for c in (64, 16, 8)
            if not FPGAModel(XILINX_7V3).feasible(
                kernel, ImplConfig(unroll=u, compute_units=c)
            )
        )
        first = cache.evaluate(kernel, XILINX_7V3, config)
        second = cache.evaluate(kernel, XILINX_7V3, config)
        assert not first.feasible and math.isnan(first.latency_ms)
        assert cache.hits == 1
        assert second == first

    def test_spec_disambiguates(self):
        kernel = small_kernel("K")
        cache = ModelEvalCache()
        config = ImplConfig()
        cache.evaluate(kernel, AMD_W9100, config)
        cache.evaluate(kernel, XILINX_7V3, config)
        assert cache.misses == 2 and len(cache) == 2

    def test_clear_resets_everything(self):
        kernel = small_kernel("K")
        cache = ModelEvalCache()
        cache.evaluate(kernel, AMD_W9100, ImplConfig())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "hits": 0.0, "misses": 0.0, "size": 0.0, "hit_rate": 0.0,
        }


class TestDSEWiring:
    def test_re_exploration_hits_cache(self):
        """A second exploration of the same kernel is pure lookups."""
        kernel = small_kernel("K", elements=1 << 13, ops=8.0)
        explore_kernel(kernel, AMD_W9100)
        misses_after_cold = model_cache.misses
        explore_kernel(kernel, AMD_W9100)
        assert model_cache.misses == misses_after_cold
        assert model_cache.hits == misses_after_cold

    def test_cached_exploration_identical(self):
        kernel = small_kernel("K", elements=1 << 13, ops=8.0)
        cold = explore_kernel(kernel, AMD_W9100)
        warm = explore_kernel(kernel, AMD_W9100)
        assert [
            (p.config, p.latency_ms, p.power_w) for p in cold
        ] == [(p.config, p.latency_ms, p.power_w) for p in warm]
