"""The serving engine: N user enclaves multiplexed through one GPU enclave.

This is the tentpole of the serving layer.  Each admitted tenant gets a
real attested session against the shared :class:`GpuEnclaveService` —
its own user enclave, 3-party key exchange, sealed channel, and bounded
message queues — and submits :class:`ServeRequest` callables into its
bounded request queue.  The engine then runs every tenant as a real
:class:`~repro.sim.engine.Process` on the shared discrete-event kernel:

* **Production happens in virtual time.**  A tenant process pulls its
  next request when the kernel schedules it to, so admission checks,
  sealed-request execution, and backpressure stalls of different
  tenants interleave on the shared machine in exactly the order a real
  serving loop would admit them.  Real bytes move, real AEAD
  seals/opens run, the GPU enclave dispatches real driver operations;
  the simulated time each request charges is measured by a fresh
  per-request recording listener (so the measurement is independent of
  the clock's absolute accumulator state — see :class:`_ChargeRecorder`)
  and split into GPU-engine-exclusive seconds (compute, dispatch,
  in-GPU crypto) vs overlappable host seconds by
  :meth:`_ChargeRecorder.split`.

* **The engine is the kernel's exclusive Resource.**  Host work of
  different tenants overlaps, GPU visits serialize under the
  configured scheduler, request timeouts expire lazily at dispatch
  time, and ``costs.gpu_context_switch`` is charged on every owner
  change.  The device's own ``gpu_ctx_switch`` charges from the serial
  production order are excluded from the measurements so switches are
  charged exactly once, by the schedule that actually decides them.

Timeout semantics are a modeling choice worth stating: a request whose
GPU visit expires on the virtual timeline already executed functionally
at production time (its allocations, transfers, and kernel effects
persist), but its engine seconds are *not* charged to the makespan —
the served/timed-out accounting reflects what a real serving loop would
have admitted to the engine, while functional state reflects the sealed
protocol's actual execution.

Under concurrent service the in-GPU crypto kernels run on per-chunk
batches too small to fill the SMs, so their measured engine seconds are
derated by the backend's
:meth:`~repro.backends.base.TeeBackend.multiuser_efficiency` whenever
more than one tenant is admitted (Section 5.4) — the same derate the
analytic Figures 8/9 model bakes into its crypto segments, which keeps
the two paths cross-checkable.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import (
    AdmissionError,
    CryptoError,
    DriverError,
    GpuAlreadyOwned,
    QueueFullError,
    RequestRejected,
)
from repro.obs import metrics as obs_metrics
from repro.obs.audit import audit_log
from repro.obs.slo import (
    bad_series,
    good_series,
    latency_series,
    shed_series,
    timeout_series,
)
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.tracer import span as _span
from repro.serve.queues import (
    BACKPRESSURE,
    DENIED,
    FAILED,
    MIGRATED,
    PENDING,
    SERVED,
    SHED,
    TIMEOUT,
    RequestQueue,
    ServeRequest,
)
from repro.serve.memo import RequestTimingMemo, costs_fingerprint
from repro.serve.report import (
    ServeReport,
    TenantReport,
    build_tenant_report,
    report_totals,
)
from repro.serve.resilience import (
    KIND_CIRCUIT_OPEN,
    KIND_CRYPTO,
    KIND_DEVICE_LOST,
    KIND_QUOTA,
    KIND_REJECTED,
    KIND_TIMEOUT,
    BREAKER_KINDS,
    RECOVERY_KINDS,
    BreakerConfig,
    CircuitBreaker,
    RetryPolicy,
    classify_failure,
    tenant_rng,
)
from repro.serve.scheduler import FifoScheduler, Scheduler, make_scheduler
from repro.serve.session import SessionTable, TenantQuota, TenantRecord
from repro.sim.engine import EventClock, LaneRun, TenantLane, WorkUnit
from repro.sim.trace import TraceEvent

#: Clock categories that occupy the GPU execution engine exclusively.
#: Everything else (ipc, copy pipelines, launches, mmio, session setup,
#: serve dispatch) is host-side work that overlaps across tenants.
GPU_ENGINE_CATEGORIES = frozenset({"gpu_compute", "gpu_dispatch",
                                   "crypto_gpu"})

#: Request-failure kinds that are security evidence: the sealed
#: protocol or the device detected tampering/loss, so the failure is
#: recorded on the audit log (the chaos detection verdict matches
#: injected faults against these records).
SECURITY_FAILURE_KINDS = frozenset({KIND_CRYPTO, KIND_DEVICE_LOST,
                                    KIND_REJECTED, "driver"})

#: What a request's functional work may raise and the engine settles as
#: a request outcome (anything else is a bug and propagates).
_REQUEST_ERRORS = (AdmissionError, QueueFullError, RequestRejected,
                  DriverError, CryptoError)

_UNSET = object()


class _ChargeRecorder:
    """Accumulate one measured region's charges from a zero baseline.

    Used as ``with _ChargeRecorder(clock) as recorder:``: the recorder
    listens to *clock* for exactly the ``with`` block, then
    :meth:`split` turns what it heard into schedulable seconds.

    Measuring by subtracting clock snapshots makes the result depend on
    the *absolute* accumulator values (``(X + d) - X`` is not always
    ``d`` in floats), so identical requests measure ulp-differently at
    different clock positions.  A fresh listener accumulates each
    region's charges from 0.0, which makes the measured split a pure
    function of the charge sequence — exactly what the timing memo
    replays, so fast-path and slow-path reports agree bit for bit.

    The production order's incidental ``gpu_ctx_switch`` charges are
    excluded at accumulation time rather than subtracted afterwards:
    they land at interleaving-dependent points in the charge sequence,
    and float addition is not associative, so ``(a + ctx + b) - ctx``
    would leak the interleaving into the last ulp of the host split.
    """

    __slots__ = ("_clock", "total", "by_category")

    #: The one category whose charges depend on cross-tenant production
    #: order.  The virtual schedule charges switches itself, from the
    #: owner changes it actually decides, so measurements drop them.
    EXCLUDED = frozenset({"gpu_ctx_switch"})

    def __init__(self, clock) -> None:
        self._clock = clock
        self.total = 0.0
        self.by_category: Dict[str, float] = {}

    def __enter__(self) -> "_ChargeRecorder":
        self._clock.add_listener(self)
        return self

    def __exit__(self, *exc) -> None:
        self._clock.remove_listener(self)

    def __call__(self, start: float, seconds: float, category: str) -> None:
        if category in self.EXCLUDED:
            return
        self.total += seconds
        self.by_category[category] = (
            self.by_category.get(category, 0.0) + seconds)

    def split(self, crypto_eff: float) -> Tuple[float, float]:
        """Measured charge -> (host_seconds, gpu_engine_seconds).

        Engine seconds are the :data:`GPU_ENGINE_CATEGORIES` charges,
        with in-GPU crypto derated by *crypto_eff* under concurrent
        service; everything else is overlappable host work.
        """
        gpu = sum(seconds for category, seconds in self.by_category.items()
                  if category in GPU_ENGINE_CATEGORIES)
        host = self.total - gpu
        if crypto_eff < 1.0:
            crypto = self.by_category.get("crypto_gpu", 0.0)
            gpu += crypto * (1.0 / crypto_eff - 1.0)
        return max(host, 0.0), max(gpu, 0.0)

    def seconds(self, crypto_eff: float) -> float:
        """The region as one serial unit: host plus engine seconds."""
        host, gpu = self.split(crypto_eff)
        return host + gpu


class _GuardedApi:
    """Quota-enforcing facade over a tenant's :class:`HixApi`.

    Device-memory allocations are charged against the tenant's budget in
    the session table *before* the sealed request is built — a denial
    never reaches the GPU enclave, it is pure serving-layer policy.
    """

    def __init__(self, api, table: SessionTable, record: TenantRecord,
                 tokens: Iterator[int]) -> None:
        self._api = api
        self._table = table
        self._record = record
        self._tokens = tokens
        self._handles: Dict[int, int] = {}

    def cuMemAlloc(self, nbytes: int):
        token = next(self._tokens)
        self._table.charge_memory(self._record, token, nbytes)
        try:
            dptr = self._api.cuMemAlloc(nbytes)
        except DriverError:
            self._table.release_memory(self._record, token)
            raise
        self._handles[dptr.addr] = token
        return dptr

    def cuMemFree(self, dptr) -> None:
        self._api.cuMemFree(dptr)
        token = self._handles.pop(dptr.addr, None)
        if token is not None:
            self._table.release_memory(self._record, token)

    def release_all(self) -> None:
        """Release the quota charges of every live allocation: the
        enclave context they lived in was destroyed with cleanse."""
        for token in self._handles.values():
            self._table.release_memory(self._record, token)
        self._handles.clear()

    def __getattr__(self, name: str):
        return getattr(self._api, name)


class TenantClient:
    """One tenant's handle on the serving engine.

    Holds the bounded request queue (submission side) and, once the
    engine runs, the tenant's real attested API session.  Several
    clients may share one tenant name — they then share the tenant's
    quota and each consumes one of its ``max_contexts``.
    """

    def __init__(self, name: str, record: TenantRecord) -> None:
        self.name = name
        self.record = record
        self.queue = RequestQueue(record.quota.max_queue_depth)
        self.requests: List[ServeRequest] = []
        self.api: Optional[_GuardedApi] = None
        self.admission_error: Optional[str] = None
        #: Bumped on every session re-establishment after a fault; each
        #: executed request is stamped with the epoch it ran under.
        self.session_epoch = 0
        #: Called with the (guarded) API after a session recovery so the
        #: workload can re-provision device state (allocations, modules)
        #: that died with the old enclave context.
        self.on_recover: Optional[Callable[[Any], None]] = None
        # Served-time accounting feeding the queue-drain retry-after hint.
        self.served_seconds = 0.0
        self.served_count = 0
        #: Cooperative drain (fleet migration): set by
        #: :meth:`request_drain`; the tenant's unit stream finishes its
        #: in-flight work, tears the session down, and hands unexecuted
        #: requests to ``on_drained``.
        self.drain_requested = False
        self.on_drained: Optional[
            Callable[[List[ServeRequest]], None]] = None
        #: Requests handed off to another machine by a cooperative drain.
        self.migrated_away = 0
        #: Set on migrated-in clients: run ``on_recover`` right after
        #: session setup to re-provision device state that stayed behind
        #: (cleansed) on the source machine.
        self.reprovision_on_start = False
        #: When the engine runs with ``capture_units=True``, every
        #: virtual-time unit this tenant charged (session setup, serves,
        #: backoffs, teardown) — the ledger a lite-session profile
        #: replays without any crypto state.
        self.captured_units: Optional[List[WorkUnit]] = None

    def request_drain(self) -> None:
        """Ask the tenant's stream to stop pulling new requests."""
        self.drain_requested = True

    def service_estimate(self, costs) -> float:
        """Expected service seconds per request: the observed mean over
        completed requests, or the calibrated dispatch latency (the only
        per-request cost known) before any request completed."""
        if self.served_count:
            return self.served_seconds / self.served_count
        return costs.serve_dispatch_latency

    def submit(self, label: str, fn: Callable[[Any], Any],
               timeout: Any = _UNSET,
               extra_host_seconds: float = 0.0,
               memo_key: Any = None, batch_key: Any = None,
               batch_arg: Any = None, batch_fn: Any = None) -> ServeRequest:
        """Queue one request; raises :class:`BackpressureError` if full.

        *timeout* defaults to the tenant quota's ``request_timeout``;
        pass ``None`` explicitly to exempt a single request.  The
        ``memo_key``/``batch_*`` metadata opts the request into the
        engine's timing-memo fast path (see :class:`ServeRequest`).
        """
        if timeout is _UNSET:
            timeout = self.record.quota.request_timeout
        request = ServeRequest(label=label, fn=fn, timeout=timeout,
                               extra_host_seconds=extra_host_seconds,
                               memo_key=memo_key, batch_key=batch_key,
                               batch_arg=batch_arg, batch_fn=batch_fn)
        self.queue.submit(request)
        self.requests.append(request)
        return request

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for request in self.requests:
            counts[request.outcome] = counts.get(request.outcome, 0) + 1
        return counts


class ServeEngine:
    """Multi-tenant serving loop over one GPU enclave."""

    def __init__(self, machine, service=None,
                 scheduler: Union[str, Scheduler] = "fair",
                 max_tenants: int = 8,
                 default_quota: Optional[TenantQuota] = None,
                 crypto_efficiency: Optional[float] = None,
                 channel_queue_depth: int = 4,
                 fast_path: bool = True,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker: Optional[BreakerConfig] = None,
                 seed: int = 0,
                 capture_units: bool = False,
                 telemetry: Optional[TimeSeriesSampler] = None) -> None:
        self._machine = machine
        self._service = (service if service is not None
                         else machine.boot_secure())
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler, machine.costs)
        self._scheduler = scheduler
        self.table = SessionTable(max_tenants=max_tenants,
                                  default_quota=default_quota)
        self._clients: List[TenantClient] = []
        self._alloc_tokens = itertools.count(1)
        self._crypto_efficiency = crypto_efficiency
        self._channel_queue_depth = channel_queue_depth
        self._fast_path = fast_path
        #: Resilience knobs (repro.serve.resilience); both default off,
        #: in which case failures are terminal exactly as before.
        self._retry_policy = retry_policy
        self._breaker_config = breaker
        self._seed = seed
        #: Tee every tenant's charged units into
        #: ``client.captured_units`` (lite-session profile capture).
        self.capture_units = capture_units
        #: Windowed time-series sampler (repro.obs.timeseries).  When
        #: set, the engine attaches it to the run's kernel and records
        #: per-request outcome marks and completion latencies at their
        #: virtual times.  Pure observation: a telemetry-enabled run is
        #: bit-identical in simulated time and reports to a disabled one
        #: (pinned by tests/property/test_prop_telemetry.py).
        self.telemetry = telemetry
        self._kernel: Optional[EventClock] = None
        # Run state between start() and finish() (fleet shared-kernel
        # runs hold several engines open across one kernel drain).
        self._lane_run: Optional[LaneRun] = None
        #: Lane name -> its tenant client (``None`` for a lite lane), in
        #: lane-index order.
        self._lanes: Dict[str, Optional[TenantClient]] = {}
        self._crypto_eff = 1.0
        #: Timing memo for the fast path; shared across tenants of one
        #: engine (they share the session configuration the key tokens).
        self.memo = RequestTimingMemo()

    def _memo_token(self, crypto_eff: float):
        """Everything that parameterizes what an identical request charges."""
        config = getattr(self._machine, "config", None)
        return (getattr(config, "backend", "hix"),
                getattr(config, "suite_name", None),
                getattr(config, "data_inflation", None),
                self._channel_queue_depth, crypto_eff,
                costs_fingerprint(self._machine.costs))

    @property
    def service(self):
        return self._service

    @property
    def machine(self):
        return self._machine

    @property
    def scheduler(self) -> Scheduler:
        return self._scheduler

    @scheduler.setter
    def scheduler(self, scheduler: Scheduler) -> None:
        """Swap the arbitration policy (chaos wraps it adversarially)."""
        self._scheduler = scheduler

    @property
    def clients(self) -> List[TenantClient]:
        return list(self._clients)

    def add_tenant(self, name: str,
                   quota: Optional[TenantQuota] = None) -> TenantClient:
        """Admit *name* (or attach another client to an admitted tenant)."""
        record = self.table.admit(name, quota)
        client = TenantClient(name, record)
        self._clients.append(client)
        return client

    # -- measurement -------------------------------------------------------

    def _resolve_crypto_efficiency(self) -> float:
        if self._crypto_efficiency is not None:
            return self._crypto_efficiency
        if len({c.name for c in self._clients}) > 1:
            return self._machine.backend.multiuser_efficiency(
                self._machine.costs)
        return 1.0

    # -- resilience --------------------------------------------------------

    def _queue_retry_after(self, client: TenantClient) -> float:
        """Retry-after hint for ``queue_full``: how long until the
        channel backlog likely drained.

        The drain rate is the tenant's per-request service estimate
        (:meth:`TenantClient.service_estimate`); the backlog that must
        drain is bounded by the channel queue depth.
        """
        return (client.service_estimate(self._machine.costs)
                * self._channel_queue_depth)

    def _restore_service(self) -> None:
        """Bring back a dead GPU enclave service.

        A killed GPU enclave leaves GECS bound (termination protection,
        Section 4.2.3), so a re-boot attempt raises
        :class:`GpuAlreadyOwned` and the only path back is a cold boot
        — exactly the lifecycle the paper prescribes.
        """
        machine = self._machine
        try:
            self._service = machine.boot_secure()
        except GpuAlreadyOwned:
            machine.cold_boot()
            self._service = machine.boot_secure()
        obs_metrics.registry().counter("serve.retry.service_restores").inc()
        audit_log().record(
            "serve.service_restored", "machine",
            time=self._kernel.now if self._kernel is not None else 0.0,
            detail="GPU service re-established after device loss "
                   "(cold boot when GECS stayed bound)",
            backend=getattr(getattr(machine, "config", None),
                            "backend", "hix"))

    def _recover_session(self, client: TenantClient, guarded: "_GuardedApi",
                         crypto_eff: float) -> float:
        """Re-establish *client*'s session after enclave/session loss.

        Runs the full trust path again — fresh user enclave, attestation
        of the (possibly re-booted) GPU enclave, 3-party key exchange —
        measured and charged to the tenant like any other work.  Device
        state from the old session is gone (the enclave context was
        destroyed with cleanse), so quota charges for old allocations
        are released, the timing memo is invalidated (stale splits must
        never replay against a fresh session), and the client's
        ``on_recover`` hook re-provisions workload state.  Returns the
        serial seconds the recovery charged.
        """
        machine = self._machine
        with _ChargeRecorder(machine.clock) as recorder, _span(
                "serve.session-recovery", "serve", tenant=client.name,
                backend=getattr(machine.config, "backend", "hix")):
            if not self._service.alive:
                self._restore_service()
            guarded.release_all()
            api = machine.secure_session(
                self._service, name=client.name,
                channel_queue_depth=self._channel_queue_depth)
            api.cuCtxCreate()
            guarded._api = api
            client.session_epoch += 1
            self.memo.invalidate("session re-established after fault")
            if client.on_recover is not None:
                client.on_recover(guarded)
        obs_metrics.registry().counter("serve.retry.session_recoveries").inc()
        audit_log().record(
            "serve.session_recovered", client.name,
            time=self._kernel.now if self._kernel is not None else 0.0,
            detail=f"session re-established at epoch "
                   f"{client.session_epoch} (fresh attestation + key "
                   f"exchange, memo invalidated)",
            epoch=client.session_epoch)
        return recorder.seconds(crypto_eff)

    # -- execution ---------------------------------------------------------

    def _unit_stream(self, client: TenantClient,
                     crypto_eff: float) -> Iterator[WorkUnit]:
        """The tenant's behaviour: pulled by its kernel process.

        Each ``next()`` happens inside a kernel event, at the tenant's
        virtual production time — so real sealed requests of different
        tenants interleave on the shared machine in the same order a
        real serving loop would admit them, and admission errors,
        backpressure, and timeout settlement all land in virtual time.
        """
        machine = self._machine
        clock = machine.clock
        costs = machine.costs
        policy = self._retry_policy
        rng = (tenant_rng(self._seed, client.name)
               if policy is not None else None)
        breaker = (CircuitBreaker(self._breaker_config)
                   if self._breaker_config is not None else None)
        registry = obs_metrics.registry()
        telemetry = self.telemetry
        audit = audit_log()
        tenant = client.name

        def vnow() -> float:
            return self._kernel.now if self._kernel is not None else 0.0

        if self.capture_units:
            client.captured_units = []
        capture = client.captured_units

        def emit(unit: WorkUnit) -> WorkUnit:
            # Tee the charge (not the callbacks) into the lite-session
            # capture ledger: replaying these units charges virtual time
            # bit-identically without touching any crypto state.
            if capture is not None:
                capture.append(WorkUnit(unit.host_seconds, unit.gpu_seconds,
                                        unit.label, deadline=unit.deadline,
                                        idle=unit.idle))
            return unit

        def settle(requests: List[ServeRequest], outcome: str,
                   latency: float = 0.0, detail: str = "") -> None:
            """The one place a request outcome lands, at virtual now.

            Writes *outcome* on every request and its telemetry: served
            requests mark ``good`` and observe *latency*; failed and
            timed-out ones mark ``bad`` (timeouts also ``timeout``);
            denied, backpressured and shed ones mark ``shed``.  A
            failure the sealed protocol or the device detected is
            security evidence and is audited as ``serve.fault_detected``
            with *detail*.
            """
            if not requests:
                return
            now = vnow()
            for request in requests:
                request.outcome = outcome
                if outcome == TIMEOUT:
                    request.error_kind = KIND_TIMEOUT
            if telemetry is not None:
                count = len(requests)
                if outcome == SERVED:
                    telemetry.mark(good_series(tenant), now, count)
                    telemetry.observe(latency_series(tenant), now, latency)
                elif outcome in (FAILED, TIMEOUT):
                    telemetry.mark(bad_series(tenant), now, count)
                    if outcome == TIMEOUT:
                        telemetry.mark(timeout_series(tenant), now, count)
                else:
                    telemetry.mark(shed_series(tenant), now, count)
            kind = requests[0].error_kind
            if outcome == FAILED and kind in SECURITY_FAILURE_KINDS:
                audit.record("serve.fault_detected", tenant, time=now,
                             ok=False, detail=detail, error_kind=kind)

        try:
            self.table.open_context(client.record)
        except AdmissionError as exc:
            client.admission_error = str(exc)
            denied: List[ServeRequest] = []
            while client.queue:
                request = client.queue.pop()
                request.error = str(exc)
                request.error_kind = KIND_QUOTA
                denied.append(request)
            settle(denied, DENIED)
            return

        with _ChargeRecorder(clock) as recorder:
            api = machine.secure_session(
                self._service, name=client.name,
                channel_queue_depth=self._channel_queue_depth)
            with _span("serve.session-setup", "serve", tenant=client.name,
                       backend=getattr(machine.config, "backend", "hix")):
                api.cuCtxCreate()
        # Session setup is serial host work (attestation + DH); any
        # engine seconds it charged are folded in rather than scheduled.
        yield emit(WorkUnit(recorder.seconds(crypto_eff), None,
                            "session-setup"))

        guarded = _GuardedApi(api, self.table, client.record,
                              self._alloc_tokens)
        client.api = guarded

        if client.reprovision_on_start and client.on_recover is not None:
            # Migrated-in session: device state stayed behind (cleansed)
            # on the source machine, so the workload's recovery hook
            # re-provisions it against the fresh session — measured and
            # charged like any other work.
            with _ChargeRecorder(clock) as recorder, _span(
                    "serve.session-reprovision", "serve",
                    tenant=client.name):
                client.on_recover(guarded)
            yield emit(WorkUnit(recorder.seconds(crypto_eff), None,
                                "reprovision"))

        fast = self._fast_path
        pending: List[ServeRequest] = []
        retry_backlog: Deque[ServeRequest] = deque()

        def flush_pending() -> None:
            """Run the deferred functional work of memo-hit requests.

            Real bytes still move through the sealed protocol — runs of
            consecutive requests that share a ``batch_key`` coalesce
            through the batch ops (one AEAD seal/open per fused frame)
            — but the clock is suppressed: their virtual time was
            already charged from the memo, bit-identically to the slow
            path.

            A group whose deferred execution fails (a fault landed
            between the charge and the flush) is terminal when no retry
            policy is configured; with one, each retryable request is
            re-queued for a full slow-path re-execution.
            """
            if not pending:
                return
            with clock.suppressed():
                index = 0
                while index < len(pending):
                    head = pending[index]
                    group = [head]
                    if head.batch_key is not None and head.batch_fn is not None:
                        while (index + len(group) < len(pending)
                               and pending[index + len(group)].batch_key
                               == head.batch_key):
                            group.append(pending[index + len(group)])
                    try:
                        if len(group) > 1:
                            head.batch_fn(guarded, group)
                        else:
                            head.result = head.fn(guarded)
                    except _REQUEST_ERRORS as exc:
                        kind = classify_failure(exc)
                        for deferred in group:
                            deferred.attempts += 1
                            deferred.error = str(exc)
                            deferred.error_kind = kind
                        settle(group, FAILED,
                               detail=f"deferred flush failed: {exc}")
                        if policy is not None:
                            retry_backlog.extend(
                                deferred for deferred in group
                                if policy.retries(kind, deferred.attempts))
                    else:
                        for deferred in group:
                            deferred.session_epoch = client.session_epoch
                    index += len(group)
            pending.clear()

        while client.queue or retry_backlog:
            if client.drain_requested:
                # Cooperative drain: stop pulling work, flush what was
                # already charged, and let the handoff below move the
                # rest of the backlog to another machine.
                break
            # Retries re-execute over the real sealed path — never from
            # the memo, whose entry may describe the dead session the
            # first attempt failed against.
            is_retry = bool(retry_backlog)
            request = (retry_backlog.popleft() if is_retry
                       else client.queue.pop())
            if breaker is not None and not is_retry:
                allowed, wait_hint = breaker.allow(vnow())
                if not allowed:
                    request.error = "circuit breaker open"
                    request.error_kind = KIND_CIRCUIT_OPEN
                    request.retry_after = (wait_hint if wait_hint > 0.0
                                           else self._queue_retry_after(
                                               client))
                    registry.counter("serve.retry.shed").inc()
                    settle([request], SHED)
                    yield emit(WorkUnit(0.0, None, request.label))
                    continue
            memo_key = None
            cached = None
            failure = None
            if fast and not is_retry and request.memo_key is not None:
                memo_key = (request.memo_key, request.extra_host_seconds)
                cached = self.memo.get(memo_key)
            if cached is not None:
                # Memo hit: charge the cached split now and run the
                # functional work later, in the next flush.
                host, gpu = cached
                pending.append(request)
            else:
                flush_pending()
                request.attempts += 1
                with _ChargeRecorder(clock) as recorder, _span(
                        "serve.request", "serve", tenant=client.name,
                        request=request.label, seq=request.seq):
                    clock.advance(costs.serve_dispatch_latency,
                                  "serve_dispatch")
                    if request.extra_host_seconds > 0.0:
                        clock.advance(request.extra_host_seconds, "launch")
                    try:
                        request.result = request.fn(guarded)
                    except _REQUEST_ERRORS as exc:
                        request.error = str(exc)
                        request.error_kind = classify_failure(exc)
                        # A quota denial and a channel backlog (the lower
                        # level's backpressure) are not protocol faults.
                        if isinstance(exc, AdmissionError):
                            failure = DENIED
                        elif isinstance(exc, QueueFullError):
                            failure = BACKPRESSURE
                            request.retry_after = self._queue_retry_after(
                                client)
                        else:
                            failure = FAILED
                host, gpu = recorder.split(crypto_eff)
                if failure is None and memo_key is not None:
                    # Only successful runs are memoized: a failure's
                    # timing depends on where it failed, not on the
                    # request shape.
                    self.memo.put(memo_key, host, gpu)
                if breaker is not None:
                    if failure is None:
                        breaker.record_success(vnow())
                    elif request.error_kind in BREAKER_KINDS:
                        breaker.record_failure(vnow())
            request.host_seconds = host
            request.gpu_seconds = gpu
            request.session_epoch = client.session_epoch
            if failure is not None:
                settle([request], failure,
                       detail=f"{request.label}: {request.error}")
                # A denied/failed request consumed host time only; any
                # engine time it managed to charge is not scheduled.
                yield emit(WorkUnit(host + gpu, None, request.label))
                kind = request.error_kind
                if policy is not None and policy.retries(kind,
                                                         request.attempts):
                    delay = policy.backoff(request.attempts, rng)
                    registry.counter("serve.retry.attempts").inc()
                    registry.histogram(
                        "serve.retry.backoff_seconds").observe(delay)
                    yield emit(WorkUnit(delay, None,
                                        f"{request.label}:backoff",
                                        idle=True))
                    if kind in RECOVERY_KINDS:
                        yield emit(WorkUnit(
                            self._recover_session(client, guarded,
                                                  crypto_eff),
                            None, "session-recovery"))
                    request.outcome = PENDING
                    retry_backlog.append(request)
                continue
            client.served_seconds += host + gpu
            client.served_count += 1
            if gpu <= 0.0:
                # Host-only request (malloc/free/module-load): served
                # inline, never visits the engine queue.
                settle([request], SERVED, latency=host)
                yield emit(WorkUnit(host, None, request.label))
                continue

            def on_outcome(outcome: str, request: ServeRequest = request,
                           pulled_at: float = vnow(),
                           attempts: int = request.attempts) -> None:
                if request.attempts != attempts:
                    # Stale visit: the request's deferred work failed at
                    # flush since, and that failure or its retry settles
                    # the request.
                    return
                if outcome == "served":
                    settle([request], SERVED, latency=(
                        vnow() - pulled_at + request.gpu_seconds))
                else:
                    settle([request], TIMEOUT)

            yield emit(WorkUnit(host, gpu, request.label,
                                deadline=request.timeout,
                                on_outcome=on_outcome))

        flush_pending()
        draining = client.drain_requested
        with _ChargeRecorder(clock) as recorder, _span(
                "serve.teardown", "serve", tenant=client.name):
            try:
                guarded._api.cuCtxDestroy()
            except (DriverError, CryptoError):
                # The session/device died and no retry policy
                # resurrected it; quota bookkeeping still closes.
                pass
            if draining:
                # The enclave context was destroyed with cleanse;
                # release the quota charges of the allocations that
                # died with it (the target re-provisions its own).
                guarded.release_all()
            self.table.close_context(client.record)
        # Satellite fix: session teardown is a memo-invalidation point.
        # Entries are only dropped once the *last* context closes — the
        # splits stay valid between tenants of one run (they share the
        # session configuration), but never outlive the sessions they
        # were measured against.
        if all(record.contexts_open == 0 for record in self.table.tenants):
            self.memo.invalidate("all sessions closed")
        audit.record(
            "serve.session_closed", tenant, time=vnow(),
            detail="enclave context destroyed with cleanse"
                   + (" (cooperative drain)" if draining else ""),
            epoch=client.session_epoch, drained=draining)
        yield emit(WorkUnit(recorder.seconds(crypto_eff), None, "teardown"))

        if draining:
            # Hand the unexecuted backlog off *after* the teardown unit
            # has charged: the next pull happens once teardown's host
            # time elapsed, so the target's fresh session setup starts
            # strictly after the source session closed — sessions move
            # between isolation domains only via full re-establishment.
            remaining: List[ServeRequest] = list(retry_backlog)
            retry_backlog.clear()
            while client.queue:
                remaining.append(client.queue.pop())
            if remaining:
                handed = set(map(id, remaining))
                client.requests = [request for request in client.requests
                                   if id(request) not in handed]
                for request in remaining:
                    request.outcome = MIGRATED
                    request.error = None
                    request.error_kind = None
            client.migrated_away = len(remaining)
            registry.counter("serve.migrations.drained").inc()
            if client.on_drained is not None:
                client.on_drained(remaining)

    # -- lanes -------------------------------------------------------------

    def _client_lane(self, client: TenantClient,
                     crypto_eff: float) -> TenantLane:
        """A kernel lane running *client*'s unit stream under its quota."""
        quota = client.record.quota
        return TenantLane(units=self._unit_stream(client, crypto_eff),
                          weight=quota.weight,
                          max_inflight=quota.max_inflight,
                          name=client.name)

    def _named(self, lane: TenantLane,
               client: Optional[TenantClient]) -> TenantLane:
        """Register *lane* and its client (``None`` for a lite lane)
        under its own name (``lane<i>`` when empty), suffixed ``#<i>``
        with its index while that clashes: an O(1) check per lane, for
        fleets of thousands of lite lanes.
        """
        index = len(self._lanes)
        name = lane.name or f"lane{index}"
        while name in self._lanes:
            name = f"{name}#{index}"
        lane.name = name
        self._lanes[name] = client
        return lane

    def start(self, kernel: EventClock,
              extra_lanes: Sequence[TenantLane] = ()) -> LaneRun:
        """Prepare this engine's lanes on *kernel* without draining it.

        The fleet tier calls ``start`` on every machine's engine with
        ONE shared kernel, drains it once, then reads each engine's
        :meth:`finish` — the machines' virtual timelines interleave
        instead of running back to back.  ``run`` is exactly
        ``start`` + ``kernel.run()`` + ``finish``, so a bare engine run
        and a 1-machine fleet produce bit-identical reports.

        *extra_lanes* ride along on the same engine Resource without a
        tenant client — the lite-session path (see
        :mod:`repro.fleet.lite`): their charges are analytic, so they
        need no crypto state and their report rows are read straight
        off the lane accounting.
        """
        self._kernel = kernel
        if self.telemetry is not None:
            # Pure observation of the kernel's charges: drives the
            # sampler's window boundaries without scheduling events or
            # advancing any clock, so simulated time is unperturbed.
            self.telemetry.attach(kernel)
        self._scheduler.reset()
        crypto_eff = self._crypto_eff = self._resolve_crypto_efficiency()
        # (Re)bind the memo to this run's timing configuration — any
        # cost-model or session-config change invalidates cached splits.
        self.memo.configure(self._memo_token(crypto_eff))

        self._lanes = {}
        lanes = [self._named(self._client_lane(client, crypto_eff), client)
                 for client in self._clients]
        lanes.extend(self._named(lane, None) for lane in extra_lanes)
        # A plain FIFO scheduler selects min-(ready, seq) — exactly the
        # kernel-native arbitration — so hand the Resource None and let
        # it use its O(log lanes) head heap instead of an O(lanes) scan
        # per dispatch.  Identical decisions (the scheduler docstring
        # pins the equivalence); only subclasses (chaos wrappers) keep
        # the pluggable path.
        scheduler = self._scheduler
        if type(scheduler) is FifoScheduler:
            scheduler = None
        self._lane_run = LaneRun(lanes, scheduler,
                                 self._machine.costs.gpu_context_switch,
                                 kernel)
        return self._lane_run

    def admit_lane(self, lane: TenantLane,
                   client: Optional[TenantClient] = None) -> int:
        """Add a lane to a started run at the kernel's current time."""
        if self._lane_run is None:
            raise RuntimeError("admit_lane requires a started run")
        return self._lane_run.add_lane(self._named(lane, client))

    def receive_migration(self, name: str, requests: List[ServeRequest],
                          session_epoch: int,
                          quota: Optional[TenantQuota] = None,
                          on_recover: Optional[Callable[[Any], None]] = None,
                          ) -> TenantClient:
        """Admit a drained-out session mid-run and start serving it.

        The migration protocol's landing half: a fresh
        :class:`TenantClient` at ``session_epoch`` (the source's epoch
        plus one — requests served here are distinguishable from
        pre-drain ones, which keeps the chaos layer's cleanse checks
        meaningful across machines), the source's unexecuted requests
        resubmitted in order, and a new lane whose stream runs the full
        trust path — attestation, key exchange, ``on_recover``
        re-provisioning — before serving.  Nothing but the request
        ledger crosses machines: no keys, no device state, no memo
        entries.
        """
        client = self.add_tenant(name, quota)
        client.session_epoch = session_epoch
        client.on_recover = on_recover
        client.reprovision_on_start = True
        for request in requests:
            request.outcome = PENDING
            client.queue.submit(request)
            client.requests.append(request)
        self.admit_lane(self._client_lane(client, self._crypto_eff), client)
        obs_metrics.registry().counter("serve.migrations.received").inc()
        return client

    def finish(self) -> ServeReport:
        """Assemble the report after the shared kernel has drained."""
        if self._lane_run is None:
            raise RuntimeError("finish requires a started run")
        result = self._lane_run.finish()
        self._lane_run = None
        lane_names = list(self._lanes)
        lane_events: Dict[str, List[TraceEvent]] = {
            name: [] for name in lane_names}
        for tenant, event in result.events:
            lane_events[lane_names[tenant]].append(event)

        tenants: List[TenantReport] = []
        for index, (name, client) in enumerate(self._lanes.items()):
            timeline = result.timelines[index]
            if client is not None:
                tenants.append(build_tenant_report(
                    client, name, timeline, result.stall_seconds[index]))
            else:
                # Lite lane: no request ledger — the engine-visit
                # accounting is the whole story.
                tenants.append(TenantReport(
                    name=name,
                    submitted=result.served[index] + result.timed_out[index],
                    rejected_submits=0,
                    served=result.served[index],
                    timed_out=result.timed_out[index],
                    denied=0, backpressured=0, failed=0,
                    finish_time=timeline.finish_time,
                    gpu_busy=timeline.gpu_busy,
                    host_busy=timeline.host_busy,
                    waits=timeline.waits,
                    stall_seconds=result.stall_seconds[index],
                    peak_memory=0, quota_denials=0))
        report = ServeReport(
            scheduler=self._scheduler.name,
            makespan=result.makespan,
            context_switches=result.context_switches,
            gpu_utilization=result.gpu_utilization,
            tenants=tenants,
            lanes=lane_events,
        )
        if self.telemetry is not None:
            self.telemetry.finalize(report.makespan)
        self._publish_metrics(report)
        return report

    def run(self, kernel: Optional[EventClock] = None) -> ServeReport:
        """Execute every queued request and return the serving report.

        One kernel :class:`~repro.sim.engine.Process` per tenant drives
        the tenant's unit stream to exhaustion over the shared engine
        Resource; the report is read off the kernel's lane accounting.

        *kernel* lets a caller pre-schedule events on the run's event
        clock before the lanes start — the chaos layer's injection
        point.  A fresh kernel with no extra events is exactly the
        default, so an idle chaos harness is a true no-op.
        """
        kernel = kernel if kernel is not None else EventClock()
        self.start(kernel)
        kernel.run()
        return self.finish()

    def _publish_metrics(self, report: ServeReport) -> None:
        """Mirror the run's report into the process metrics registry.

        Counters accumulate across runs (they are process totals, like
        the engine's kernel counters); the gauges describe the most
        recent run.  Pure observability — nothing reads these back into
        scheduling decisions.
        """
        registry = obs_metrics.registry()
        backend = getattr(getattr(self._machine, "config", None),
                          "backend", "hix")
        registry.counter(f"serve.backend.{backend}.runs").inc()
        for name, total in report_totals(report).items():
            if total:
                registry.counter(name).inc(total)
        registry.counter("serve.ctx_switches").inc(report.context_switches)
        registry.gauge("serve.makespan_seconds").set(report.makespan)
        registry.gauge("serve.gpu_utilization").set(report.gpu_utilization)
        gpu_hist = registry.histogram("serve.request_gpu_seconds")
        host_hist = registry.histogram("serve.request_host_seconds")
        wait_hist = registry.histogram("serve.tenant_wait_seconds")
        for client in self._clients:
            for request in client.requests:
                gpu_hist.observe(request.gpu_seconds)
                host_hist.observe(request.host_seconds)
        for tenant in report.tenants:
            wait_hist.observe(tenant.waits)
