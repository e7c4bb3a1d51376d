"""Injectable fault primitives for chaos campaigns.

Each :class:`Fault` is a point event on the serving run's virtual
timeline: the injector schedules ``fault.apply(ctx)`` at ``fault.at``
virtual seconds, between kernel events, so a fault lands exactly
between two scheduled steps of the serving loop — after some tenants'
requests executed and before others — deterministically for a given
seed and fault script.

The primitives reuse the machinery the attack matrix already trusts:
:class:`~repro.osmodel.adversary.PrivilegedAdversary` for ring-0
mischief (process kill, IOMMU redirection, page-table remapping) and
the GPU-enclave lifecycle (session eviction, termination protection,
cold boot) for churn.  Scheduling-level adversity (context-switch
storms, starvation) is not a point event but a *window*: those faults
register intervals on an :class:`AdversarialArbitration` wrapper around
the engine's scheduler.

After the run, ``fault.verify(ctx)`` turns each fault into security
checks for the campaign verdict — did the sealed path detect the
tamper, did the victim recover, is the service back.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.channel import BULK_OFFSET, REQUEST_OFFSET
from repro.hw.phys_mem import PAGE_SIZE
from repro.serve.queues import FAILED, SERVED
from repro.serve.resilience import KIND_CRYPTO, KIND_DEVICE_LOST, KIND_REJECTED
from repro.serve.scheduler import Scheduler


class ChaosContext:
    """What a fault may touch: the engine under test and its machine."""

    def __init__(self, engine) -> None:
        self.engine = engine

    @property
    def machine(self):
        return self.engine.machine

    @property
    def service(self):
        # Resolved dynamically: a GPU reset replaces the service object.
        return self.engine.service

    def client(self, name: str):
        for client in self.engine.clients:
            if client.name == name:
                return client
        raise KeyError(f"no tenant named {name!r}")

    def channel_end(self, name: str):
        """Tenant *name*'s live sealed-channel end, or ``None`` when it
        has no session at this instant."""
        api = self.client(name).api
        return getattr(api, "_end", None) if api else None

    def adversary(self):
        # Built fresh per use: a cold boot replaces the OS kernel the
        # adversary's ring-0 process lives in.
        return self.machine.adversary()


class Fault:
    """One scheduled fault on the virtual timeline."""

    kind = "fault"

    def __init__(self, at: float, tenant: Optional[str] = None) -> None:
        self.at = at
        self.tenant = tenant
        self.fired = False
        self.detail = ""

    @property
    def label(self) -> str:
        target = f"->{self.tenant}" if self.tenant else ""
        return f"{self.kind}@{self.at * 1e3:.3f}ms{target}"

    def apply(self, ctx: ChaosContext) -> None:
        raise NotImplementedError

    def verify(self, ctx: ChaosContext) -> List[tuple]:
        """Post-run security checks: list of (name, subject, ok, detail)."""
        return []

    # -- shared verification helpers ------------------------------------

    def _tamper_detected(self, ctx: ChaosContext) -> List[tuple]:
        """The sealed path must have *detected* the tamper: at least one
        of the victim's executions failed with a crypto/driver kind, and
        no request silently served wrong bytes (the payload checks in
        :mod:`repro.chaos.workload` cover that side)."""
        client = ctx.client(self.tenant)
        kinds = {request.error_kind for request in client.requests
                 if request.error_kind is not None}
        detected = bool(kinds & {KIND_CRYPTO, KIND_DEVICE_LOST,
                                 KIND_REJECTED, "driver"})
        return [(f"{self.kind}.detected", self.tenant, detected,
                 f"failure kinds observed: {sorted(kinds) or 'none'}")]

    def _victim_recovered(self, ctx: ChaosContext) -> List[tuple]:
        """The victim must have re-attested and finished its stream:
        a bumped session epoch, at least one request served under the
        new epoch, and no terminally-failed request left behind."""
        client = ctx.client(self.tenant)
        recovered = client.session_epoch >= 1
        completed = any(request.outcome == SERVED
                        and request.session_epoch >= 1
                        for request in client.requests)
        stranded = [request.label for request in client.requests
                    if request.outcome == FAILED]
        ok = recovered and completed and not stranded
        return [(f"{self.kind}.recovered", self.tenant, ok,
                 f"epoch={client.session_epoch}, "
                 f"served_post_recovery={completed}, "
                 f"stranded={stranded or 'none'}")]


class GpuResetFault(Fault):
    """Ring-0 kills the GPU enclave mid-serve (lifecycle churn).

    Termination protection means GECS stays bound, so the engine's
    recovery path must cold-boot the machine before it can re-boot the
    GPU enclave — every tenant then re-attests from scratch.
    """

    kind = "gpu_reset"

    def apply(self, ctx: ChaosContext) -> None:
        service = ctx.service
        adversary = ctx.adversary()
        adversary.kill_process(service.process)
        service.alive = False
        self.detail = ("GPU enclave process killed by ring-0; "
                       "GECS still bound (termination protection)")

    def verify(self, ctx: ChaosContext) -> List[tuple]:
        alive = ctx.service.alive
        checks = [(f"{self.kind}.service_restored", "service", alive,
                   f"service.alive={alive}")]
        epochs = {client.name: client.session_epoch
                  for client in ctx.engine.clients}
        rebuilt = any(epoch >= 1 for epoch in epochs.values())
        checks.append((f"{self.kind}.sessions_rebuilt", "all", rebuilt,
                       f"session epochs: {epochs}"))
        return checks


class SessionKillFault(Fault):
    """Evict one tenant's session from the GPU enclave (with cleanse)."""

    kind = "session_kill"

    def apply(self, ctx: ChaosContext) -> None:
        service = ctx.service
        end = ctx.channel_end(self.tenant)
        session = (service.sessions.get(end.session_id)
                   if end is not None else None)
        if session is None:
            self.detail = "no live session at fire time (nothing to kill)"
            return
        service._close_session(session)
        self.detail = (f"session {session.session_id} evicted; "
                       "context destroyed with cleanse")

    def verify(self, ctx: ChaosContext) -> List[tuple]:
        return self._victim_recovered(ctx)


class DmaRedirectFault(Fault):
    """Redirect the GPU's DMA for the victim's bulk window to a trap.

    Every page of the victim channel's bulk area is remapped in the
    IOMMU to adversary-controlled DRAM, so mid-transfer DMA reads and
    writes land in the trap.  HIX's in-GPU OCB tag check must detect
    the substitution, and the trap must only ever see ciphertext.
    """

    kind = "dma_redirect"

    def __init__(self, at: float, tenant: str) -> None:
        super().__init__(at, tenant)
        self.trap: Optional[Tuple[int, int]] = None  # (paddr, nbytes)

    def apply(self, ctx: ChaosContext) -> None:
        end = ctx.channel_end(self.tenant)
        if end is None:
            self.detail = "no live channel at fire time"
            return
        region = end.region
        machine = ctx.machine
        adversary = ctx.adversary()
        bulk_bytes = region.size - BULK_OFFSET
        trap = adversary.alloc_trap_buffer(bulk_bytes)
        adversary.write_physical(trap, b"\xEE" * bulk_bytes)
        self.trap = (trap, bulk_bytes)
        base = region.paddr + BULK_OFFSET
        for offset in range(0, bulk_bytes, PAGE_SIZE):
            adversary.redirect_iommu(str(machine.gpu.bdf),
                                     base + offset, trap + offset)
        self.detail = (f"IOMMU redirected {bulk_bytes >> 10} KiB of bulk "
                       f"window at {base:#x} into trap at {trap:#x}")

    def verify(self, ctx: ChaosContext) -> List[tuple]:
        return self._tamper_detected(ctx) + self._victim_recovered(ctx)


class AeadTamperFault(Fault):
    """Corrupt the sealed request path via a page-table remap.

    The service process's view of the victim channel's REQUEST page is
    remapped to a trap holding a bit-flipped copy of the last sealed
    request — every subsequent poll opens attacker-controlled bytes.
    The AEAD open must fail (bad MAC or stale nonce), never decode.
    """

    kind = "aead_tamper"

    def __init__(self, at: float, tenant: str) -> None:
        super().__init__(at, tenant)
        self.trap: Optional[Tuple[int, int]] = None

    def apply(self, ctx: ChaosContext) -> None:
        service = ctx.service
        end = ctx.channel_end(self.tenant)
        if end is None:
            self.detail = "no live channel at fire time"
            return
        region = end.region
        adversary = ctx.adversary()
        trap = adversary.alloc_trap_buffer(PAGE_SIZE)
        # Stale sealed bytes with a few bits flipped: structurally a
        # blob, cryptographically garbage.
        stale = bytearray(adversary.read_physical(
            region.paddr + REQUEST_OFFSET, PAGE_SIZE))
        for index in (7, 63, 511):
            stale[index] ^= 0xFF
        adversary.write_physical(trap, bytes(stale))
        self.trap = (trap, PAGE_SIZE)
        service_vaddr = region.attach(service.process)
        adversary.remap_victim_page(service.process,
                                    service_vaddr + REQUEST_OFFSET, trap)
        self.detail = ("service view of REQUEST page remapped to "
                       f"bit-flipped trap at {trap:#x}")

    def verify(self, ctx: ChaosContext) -> List[tuple]:
        return self._tamper_detected(ctx) + self._victim_recovered(ctx)


# ---------------------------------------------------------------------------
# Adversarial arbitration: storms and starvation as scheduler windows.
# ---------------------------------------------------------------------------


class AdversarialArbitration(Scheduler):
    """Scheduler wrapper that misbehaves inside registered windows.

    Outside every window it delegates verbatim to the wrapped policy.
    Inside a *storm* window it always prefers a non-resident tenant,
    forcing a context switch per dispatch; inside a *starvation* window
    it hides the target lane's visits from the inner policy whenever any
    alternative exists (the engine is never left idle by malice — that
    would be detectable trivially).  Both honour the scheduler contract:
    the returned visit is always a real candidate.
    """

    def __init__(self, inner: Scheduler) -> None:
        self._inner = inner
        self.storms: List[Tuple[float, float]] = []
        self.starvations: List[Tuple[float, float, int]] = []

    @property
    def name(self) -> str:
        return f"adversarial({self._inner.name})"

    def reset(self) -> None:
        self._inner.reset()

    def add_storm(self, start: float, duration: float) -> None:
        self.storms.append((start, start + duration))

    def add_starvation(self, start: float, duration: float,
                       lane: int) -> None:
        self.starvations.append((start, start + duration, lane))

    def select(self, candidates: Sequence, resident: Optional[int],
               now: float):
        pool = list(candidates)
        for start, end, lane in self.starvations:
            if start <= now < end:
                filtered = [v for v in pool if v.tenant != lane]
                if filtered:
                    pool = filtered
        for start, end in self.storms:
            if start <= now < end:
                hostile = [v for v in pool if v.tenant != resident]
                if hostile:
                    return min(hostile, key=lambda v: (v.ready, v.seq))
        return self._inner.select(pool, resident, now)


class SchedulerStormFault(Fault):
    """Context-switch storm: [at, at+duration) prefers non-resident."""

    kind = "ctx_storm"

    def __init__(self, at: float, duration: float) -> None:
        super().__init__(at)
        self.duration = duration

    def apply(self, ctx: ChaosContext) -> None:
        # The window itself was registered at injector setup; firing is
        # just the visible marker that the storm began.
        self.detail = f"storm window {self.duration * 1e3:.3f} ms"


class StarvationFault(Fault):
    """Starve one tenant's visits for [at, at+duration)."""

    kind = "starvation"

    def __init__(self, at: float, duration: float, tenant: str) -> None:
        super().__init__(at, tenant)
        self.duration = duration

    def apply(self, ctx: ChaosContext) -> None:
        self.detail = (f"starving {self.tenant} for "
                       f"{self.duration * 1e3:.3f} ms")
