"""Unit tests for the calibrated cost model."""

import pytest

from repro.backends import get_backend
from repro.sim.costs import CostModel, GB, MB


class TestCostModel:
    def test_h2d_time_scales_linearly(self):
        costs = CostModel()
        one = costs.h2d_time(int(64 * MB))
        two = costs.h2d_time(int(128 * MB))
        assert two - one == pytest.approx(64 * MB / costs.pcie_h2d_bandwidth)

    def test_h2d_includes_setup_latency(self):
        costs = CostModel()
        assert costs.h2d_time(0) == pytest.approx(costs.dma_setup_latency)

    def test_mmio_path_slower_than_dma(self):
        costs = CostModel()
        nbytes = int(16 * MB)
        assert costs.h2d_time(nbytes, via_mmio=True) > costs.h2d_time(nbytes)

    def test_d2h_slower_than_h2d(self):
        # PCIe 2.0-era effective rates are asymmetric.
        costs = CostModel()
        nbytes = int(64 * MB)
        assert costs.d2h_time(nbytes) > costs.h2d_time(nbytes)

    def test_cpu_aead_slower_than_gpu_aead(self):
        costs = CostModel()
        nbytes = int(64 * MB)
        assert (costs.cpu_aead_time(nbytes)
                > get_backend("hix").device_crypto_time(costs, nbytes))

    def test_data_inflation_scales_charges(self):
        base = CostModel()
        inflated = CostModel(data_inflation=64.0)
        nbytes = int(1 * MB)
        assert inflated.scaled(nbytes) == pytest.approx(64 * MB)
        assert (inflated.h2d_time(nbytes) - inflated.dma_setup_latency
                ) == pytest.approx(
            64 * (base.h2d_time(nbytes) - base.dma_setup_latency))

    def test_with_overrides_returns_copy(self):
        base = CostModel()
        tweaked = base.with_overrides(pcie_h2d_bandwidth=1.0 * GB)
        assert tweaked.pcie_h2d_bandwidth == pytest.approx(1.0 * GB)
        assert base.pcie_h2d_bandwidth == pytest.approx(6.0 * GB)

    def test_cleanse_time_positive(self):
        assert CostModel().cleanse_time(int(MB)) > 0.0

    def test_hix_init_cheaper_than_gdev_init(self):
        # The paper: task initialization is slightly lower under HIX.
        costs = CostModel()
        assert (costs.hix_task_init + costs.session_setup
                < costs.gdev_task_init)

    def test_hix_launch_cheaper_than_gdev_ioctl(self):
        # User-level message queue vs ioctl into the kernel driver.
        costs = CostModel()
        assert costs.kernel_launch_hix < costs.kernel_launch_gdev

    def test_multiuser_efficiency_below_one(self):
        costs = CostModel()
        assert 0.0 < costs.gpu_aead_multiuser_efficiency <= 1.0
