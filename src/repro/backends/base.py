"""The TEE-backend contract: what a sealed GPU stack must provide.

A backend is one point in the CPU-GPU confidential-computing design
space.  It owns four things:

1. **Boot/attest** — bring up the trusted intermediary (HIX's GPU
   enclave; GPU-CC's on-die engines behind an untrusted driver) and
   establish what the user verifies: an enclave measurement chain or a
   device certificate chain.
2. **Key-exchange transcript** — how the per-session key is agreed
   (HIX: 3-party DH among user, GPU enclave and GPU; GPU-CC: 2-party
   DH user <-> device, relayed but never readable by the driver).
3. **Sealed-path framing** — how bulk data crosses the untrusted host
   (HIX: OCB-DMA windows + in-GPU crypto kernels; GPU-CC: bounce-buffer
   DMA + the on-die AEAD engine).
4. **Per-op cost contributions and cleanse/reset semantics** — which
   :class:`~repro.sim.costs.CostModel` fields each op charges, and what
   guarantees deallocation/reset give.

The interface is deliberately thin: backends produce a *service* (the
machine-side stack) and per-tenant *api* objects that expose the same
``cu*`` facade, so everything above — :class:`~repro.serve.ServeEngine`,
the fleet router, evalkit — is backend-agnostic.  The sealed-RPC client
and request loop themselves are shared
(:class:`~repro.core.runtime.SealedRpcApi`,
:class:`~repro.core.gpu_enclave.SealedRpcService`); they charge simulated
time through the cost hooks below, looked up by the backend's name.
The analytic multi-user model (:func:`repro.evalkit.harness.user_segments`)
builds its segments from the same hooks.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

#: A transfer pipeline: per-stage bandwidths and per-stage setup latencies.
Stages = Tuple[Sequence[float], Sequence[float]]

DEFAULT_REGION_SIZE = 4 * (1 << 20)


class TeeBackend:
    """One TEE design point.  Subclasses are stateless singletons."""

    #: registry key and ``--backend``/``--mode`` value
    name: str = "?"
    #: what the user verifies before trusting the stack
    attestation: str = "?"
    #: how bulk data is framed across the untrusted host
    sealed_path: str = "?"
    #: does the backend lock down GPU MMIO from other ring-0 software?
    mmio_lockdown: bool = False
    #: does killing the service leave the GPU bound (GECS-style)?
    termination_protection: bool = False

    # -- lifecycle ------------------------------------------------------

    def boot(self, machine, region_size: int = DEFAULT_REGION_SIZE,
             device=None):
        """Boot the machine-side service for this backend."""
        raise NotImplementedError

    def create_session(self, machine, service, name: str = "app",
                       check_identity: bool = True,
                       channel_queue_depth=None):
        """Attest and key-exchange one tenant session; return its api."""
        raise NotImplementedError

    # -- cost contributions --------------------------------------------
    # Every per-backend cost formula lives in these hooks, so adding a
    # backend is one subclass: CostModel only holds calibrated fields.

    def rpc_round_trip(self, costs) -> float:
        """One sealed request/reply round trip over the channel."""
        raise NotImplementedError

    def launch_overhead(self, costs) -> float:
        """Driver-visible cost of one kernel launch, beyond GPU compute.

        Shared by the evalkit harness's launch-count correction, the
        multi-user segments and the serving layer's job builder, so all
        three charge elided launches identically.
        """
        raise NotImplementedError

    def multiuser_efficiency(self, costs) -> float:
        """Derate of the backend's GPU-side crypto stage under sharing."""
        raise NotImplementedError

    def session_setup(self, costs) -> Tuple[float, float]:
        """``(task_init, session_setup)`` seconds charged per context."""
        raise NotImplementedError

    def kernel_launch(self, costs) -> float:
        """Client-side cost of one sealed kernel launch."""
        raise NotImplementedError

    def memcpy_request_overhead(self, costs) -> float:
        """Per-transfer metadata cost on top of the round trip."""
        raise NotImplementedError

    def device_crypto(self, costs) -> Tuple[float, float]:
        """``(latency, bandwidth)`` of one device-side AEAD pass."""
        raise NotImplementedError

    def device_crypto_time(self, costs, nbytes: int) -> float:
        """Device-side open/seal of *nbytes* (charged as ``crypto_gpu``)."""
        latency, bandwidth = self.device_crypto(costs)
        return latency + costs.scaled(nbytes) / bandwidth

    def h2d_stages(self, costs) -> Stages:
        """The sealed upload pipeline, CPU seal first."""
        raise NotImplementedError

    def d2h_stages(self, costs) -> Stages:
        """The sealed download pipeline, CPU open last."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TeeBackend {self.name}>"


_REGISTRY: Dict[str, TeeBackend] = {}


def register(backend: TeeBackend) -> TeeBackend:
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> TeeBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown TEE backend {name!r}; known backends: {known}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))
