"""Abusive tenant request streams for chaos campaigns.

These are *tenants behaving badly within the protocol* — no ring-0
powers, just hostile use of the serving API.  Each helper queues a
deterministic stream on an ordinary :class:`TenantClient`; the serving
layer's admission control, backpressure, and timeout machinery is what
keeps the abuse from degrading victims beyond the campaign's declared
fairness bound.

* :func:`submit_queue_flood` — saturate the bounded request queue with
  uploads, counting how many submissions backpressure rejects;
* :func:`submit_quota_probe` — repeatedly request device allocations far
  above the tenant's memory budget, expecting admission denials;
* :func:`submit_timeout_surf` — launch compute bursts that outlast the
  tenant's own request timeout, so the lazy-expiry path fires under
  contention (timeout surfing: pay nothing, clog the ready queue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.chaos.workload import chain_recover
from repro.errors import BackpressureError
from repro.serve.engine import TenantClient
from repro.serve.queues import ServeRequest


@dataclass
class AbusePlan:
    """What one abuse stream submitted and what bounced at submission."""

    kind: str
    tenant: str
    submitted: List[ServeRequest] = field(default_factory=list)
    #: Submissions the bounded queue rejected before the run even began.
    backpressured: int = 0


def submit_queue_flood(client: TenantClient, floods: int = 32,
                       payload_bytes: int = 2048,
                       seed: int = 0) -> AbusePlan:
    """Flood *client*'s bounded queue with small uploads.

    Submits a setup allocation then ``floods`` upload attempts; every
    submission past the queue depth raises
    :class:`~repro.errors.BackpressureError`, which is counted rather
    than propagated — the flood's point is to hit the bound.
    """
    plan = AbusePlan(kind="queue_flood", tenant=client.name)
    rng = np.random.default_rng(seed + 0x0F100D)
    nbytes = max(payload_bytes, 4)
    nbytes += (-nbytes) % 4
    state: Dict[str, object] = {}

    def setup(api, nbytes: int = nbytes):
        state["dptr"] = api.cuMemAlloc(nbytes)

    try:
        plan.submitted.append(client.submit("flood:setup", setup))
    except BackpressureError:
        plan.backpressured += 1
        return plan

    for index in range(floods):
        data = rng.integers(0, 256, size=nbytes, dtype=np.uint8)

        def upload(api, data=data):
            api.cuMemcpyHtoD(state["dptr"], data)

        try:
            plan.submitted.append(
                client.submit(f"flood:h2d[{index}]", upload))
        except BackpressureError:
            plan.backpressured += 1

    # Recovery re-provisions exactly what setup allocated.
    client.on_recover = chain_recover(client.on_recover, setup)
    return plan


def submit_quota_probe(client: TenantClient, probes: int = 6,
                       probe_bytes: int = 1 << 30) -> AbusePlan:
    """Probe the tenant memory quota with oversized allocations.

    Each probe calls ``cuMemAlloc`` for *probe_bytes* (default 1 GiB,
    far above any test quota); admission control must deny every one
    without disturbing other tenants' budgets.
    """
    plan = AbusePlan(kind="quota_probe", tenant=client.name)
    for index in range(probes):

        def probe(api, nbytes: int = probe_bytes):
            api.cuMemAlloc(nbytes)

        try:
            plan.submitted.append(client.submit(f"probe:alloc[{index}]",
                                                probe))
        except BackpressureError:
            plan.backpressured += 1
    return plan


def submit_timeout_surf(client: TenantClient, surfs: int = 6,
                        compute_seconds: float = 2e-3,
                        timeout: float = 1e-4) -> AbusePlan:
    """Submit compute bursts that outlast their own declared timeout.

    The surfer's requests carry a compute hint well above *timeout*, so
    under any contention the lazy-expiry path cancels them while they
    queue — the abuse is the steady stream of doomed work occupying
    arbitration slots.
    """
    plan = AbusePlan(kind="timeout_surf", tenant=client.name)
    state: Dict[str, object] = {}

    def setup(api):
        state["dptr"] = api.cuMemAlloc(4096)
        state["module"] = api.cuModuleLoad(["builtin.memset32"])

    try:
        plan.submitted.append(client.submit("surf:setup", setup,
                                            timeout=None))
    except BackpressureError:
        plan.backpressured += 1
        return plan

    for index in range(surfs):

        def surf(api, hint=compute_seconds):
            api.cuLaunchKernel(state["module"], "builtin.memset32",
                               [state["dptr"], 64, 0x51],
                               compute_seconds=hint)

        try:
            plan.submitted.append(client.submit(f"surf:launch[{index}]",
                                                surf, timeout=timeout))
        except BackpressureError:
            plan.backpressured += 1

    client.on_recover = chain_recover(client.on_recover, setup)
    return plan


ABUSE_KINDS = {
    "queue_flood": submit_queue_flood,
    "quota_probe": submit_quota_probe,
    "timeout_surf": submit_timeout_surf,
}
