"""The HIX-SGX backend: the paper's design, behind the backend contract.

The sealed-RPC client and request loop are shared with every backend;
:mod:`repro.core.runtime` (:class:`~repro.core.runtime.HixApi`) and
:mod:`repro.core.gpu_enclave`
(:class:`~repro.core.gpu_enclave.GpuEnclaveService`) add HIX's
handshake (SGX local attestation + 3-party DH) and staging (the in-GPU
``hix.aead_*`` kernels).  This class supplies HIX's cost terms: 2-stage
seal/DMA pipelines, the ``*_hix`` overheads and the in-GPU AEAD kernel
time.
"""

from __future__ import annotations

from typing import Tuple

from repro.backends.base import (
    DEFAULT_REGION_SIZE,
    Stages,
    TeeBackend,
    register,
)


class HixBackend(TeeBackend):
    """SGX GPU enclave + OCB-DMA windows + in-GPU crypto kernels."""

    name = "hix"
    attestation = ("SGX local report chain + GPU BIOS measurement at "
                   "enclave init")
    sealed_path = "OCB-DMA window remapping + in-GPU AEAD kernels"
    mmio_lockdown = True
    termination_protection = True

    def boot(self, machine, region_size: int = DEFAULT_REGION_SIZE,
             device=None):
        return machine.boot_hix(region_size=region_size, device=device)

    def create_session(self, machine, service, name: str = "app",
                       check_identity: bool = True,
                       channel_queue_depth=None):
        return machine.hix_session(service, name=name,
                                   check_identity=check_identity,
                                   channel_queue_depth=channel_queue_depth)

    def rpc_round_trip(self, costs) -> float:
        return costs.rpc_round_trip()

    def session_setup(self, costs) -> Tuple[float, float]:
        return costs.hix_task_init, costs.session_setup

    def kernel_launch(self, costs) -> float:
        return costs.kernel_launch_hix

    def memcpy_request_overhead(self, costs) -> float:
        return costs.memcpy_request_overhead_hix

    def device_crypto_time(self, costs, nbytes: int) -> float:
        return costs.gpu_aead_time(nbytes)

    def h2d_stages(self, costs) -> Stages:
        return ((costs.cpu_aead_bandwidth, costs.pcie_h2d_bandwidth),
                (costs.cpu_aead_setup_latency, costs.dma_setup_latency))

    def d2h_stages(self, costs) -> Stages:
        return ((costs.pcie_d2h_bandwidth, costs.cpu_aead_bandwidth),
                (costs.dma_setup_latency, costs.cpu_aead_setup_latency))


BACKEND = register(HixBackend())
