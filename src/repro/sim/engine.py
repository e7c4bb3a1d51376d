"""The discrete-event kernel every timing layer runs on.

One heap, one arbitration discipline, three client surfaces: the
analytic multi-user model (:func:`repro.core.multiuser.simulate_concurrent`),
the serving layer (:class:`repro.serve.engine.ServeEngine` and its
scheduler-driven cross-check
:func:`repro.serve.timeline.schedule_segments`), and the pipelined
seal+transfer makespan (:mod:`repro.sim.pipeline`) all run on the
primitives here and read :func:`run_lanes`'s :class:`LaneResult`
directly.  Before this kernel existed each of those layers had
its own event loop, and two of them disagreed on simultaneous-event
tie-breaks; the kernel's single ordering rule makes FIFO serving
*exactly* equal to the retired oracle on every input (see
``tests/property/test_prop_engine.py``).

Primitives
----------

:class:`EventClock`
    The event heap plus virtual ``now``.  Exposes the same
    ``add_listener``/``remove_listener`` surface as
    :class:`repro.sim.clock.SimClock`, so a
    :class:`repro.obs.tracer.SpanTracer` attaches to virtual time
    unchanged.
:class:`Process`
    A generator wrapped into the event loop.  The generator ``yield``\\ s
    :class:`Wait` (timed suspension), :class:`Acquire` (submit a
    :class:`Visit` to a :class:`Resource` and suspend until it is served
    or expires), or :data:`BLOCK` (suspend until resumed externally).
:class:`Resource`
    An exclusive engine (the GPU execution engine, or one pipeline
    stage).  Per-lane FIFO queues, a pluggable scheduler over the queue
    heads, a context-switch charge on owner change, and lazy deadline
    expiry at dispatch time.

Ordering rule (the tie-break fix)
---------------------------------

Events order by ``(time, priority, seq)`` with ``seq`` allocated
monotonically — FIFO-arrival order, with lane index seeding the order
at t=0.  Three mechanisms make FIFO dispatch reproduce the retired
oracle's pop order — which pre-reserved the engine the moment a GPU
event popped — on *all* inputs, ties included:

1. a visit arriving while the engine is free is served synchronously
   inside its own arrival event (the oracle served at pop), so its
   lane's continuation re-enters the heap before any later same-time
   event allocates a rank;
2. when the engine frees at time ``F``, the dispatch decision runs at
   ``(F, PRIO_DISPATCH)`` — *before* normal events at ``F`` — because
   the oracle granted those slots at earlier pops;
3. every queued visit pre-allocates its continuation seq at arrival
   (:meth:`Resource.submit`), and its lane resumes *inside* the
   completion event carrying that seq, so the lane's next visit
   competes under the rank the oracle would have allocated at that pop.

FIFO then selects ``min (ready, seq)`` over the queue heads, which is
exactly heap pop order of the arrival events.

The retired serving multiplexer used the opposite rule — drain every
same-instant event, then arbitrate — and on simultaneous events the two
rules hand a *stateful* scheduler (DRR credit, round-robin rotation)
different candidate sets.  That divergence was declared fixed in the
analytic oracle's favor; the differential suite therefore compares
non-FIFO schedulers against the retired multiplexer only on timelines
with no coincident instants (see ``tie_free_users`` and its
rounding-collapse filter in ``tests/property/test_prop_engine.py``).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import metrics as obs_metrics
from repro.obs.tracer import STATE as _OBS
from repro.sim.trace import TraceEvent

#: Engine-free dispatch decisions pop before same-time normal events:
#: the slots they hand out were promised at earlier pops (the oracle's
#: pre-reservation order).
PRIO_DISPATCH = 0
#: Process resumes, visit arrivals, completions.
PRIO_NORMAL = 1
#: Re-dispatch after deadline expiry: drain same-time resumes first,
#: matching the retired multiplexer's drain-then-dispatch loop.
PRIO_REDISPATCH = 2


class Event:
    """One scheduled entry in the kernel heap.

    A plain slotted object rather than a dataclass: the kernel allocates
    one per scheduled step and :class:`EventClock` recycles drained
    entries through a freelist, so construction, comparison, and reuse
    stay allocation-free on the hot path.  ``fn`` is the callback the
    heap invokes; it is cleared when the entry is recycled.
    """

    __slots__ = ("time", "priority", "seq", "fn")

    def __init__(self, time: float, priority: int, seq: int,
                 fn: Optional[Callable[["Event"], None]] = None) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r})")


class EventClock:
    """Virtual time: an event heap with SimClock's listener surface.

    Listeners receive ``(start, seconds, category)`` exactly as
    :class:`repro.sim.clock.SimClock` emits them, so a ``SpanTracer``
    (or any other charge consumer) attaches to a kernel run unchanged.
    Unlike ``SimClock``, time here advances by popping events, not by
    ``advance`` calls; charges describe work the processes placed on
    the timeline.
    """

    def __init__(self) -> None:
        self.now: float = 0
        self._heap: List[Event] = []
        self._free: List[Event] = []
        self._seq = itertools.count()
        self._listeners: List[Callable[[float, float, str], None]] = []
        self.events_processed = 0
        # The process-wide registry counter is resolved once per kernel;
        # run() batches into a local and flushes one add.
        self._events_counter = obs_metrics.registry().counter(
            "engine.events_processed")

    # -- seq allocation (the tie-break currency) ------------------------------

    def allocate_seq(self) -> int:
        """Claim the next position in arrival order."""
        return next(self._seq)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, time: float, fn: Callable[[Event], None], *,
                 priority: int = PRIO_NORMAL,
                 seq: Optional[int] = None) -> Event:
        """Schedule ``fn(event)`` at ``time``; returns the heap entry.

        ``seq`` defaults to a fresh allocation; passing a pre-allocated
        seq is how continuations keep their arrival-order rank.

        The returned entry is recycled once its callback has run; do not
        retain it past the callback.
        """
        if seq is None:
            seq = self.allocate_seq()
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.fn = fn
        else:
            event = Event(time, priority, seq, fn)
        heapq.heappush(self._heap, event)
        return event

    def run(self) -> float:
        """Drain the heap; returns the final virtual time."""
        heap = self._heap
        free = self._free
        processed = 0
        while heap:
            event = heapq.heappop(heap)
            self.now = event.time
            event.fn(event)
            event.fn = None
            free.append(event)
            processed += 1
        if processed:
            self.events_processed += processed
            self._events_counter.inc(processed)
        return self.now

    # -- SimClock-compatible charge surface -----------------------------------

    def charge(self, start: float, seconds: float, category: str) -> None:
        """Report ``seconds`` of ``category`` work starting at ``start``."""
        for listener in list(self._listeners):
            listener(start, seconds, category)

    def add_listener(self,
                     listener: Callable[[float, float, str], None]) -> None:
        self._listeners.append(listener)

    def remove_listener(self,
                        listener: Callable[[float, float, str], None]) -> None:
        self._listeners.remove(listener)


@dataclass(slots=True)
class Visit:
    """A pending exclusive-engine visit; per-lane queue heads compete."""

    tenant: int
    seq: int              # arrival-event seq (FIFO tie-break)
    ready: float          # when the host-side preparation finished
    gpu_seconds: float
    weight: float = 1.0
    deadline: Optional[float] = None   # absolute virtual seconds
    label: str = ""
    on_outcome: Optional[Callable[[str], None]] = None
    resume_seq: Optional[int] = None   # pre-allocated completion-event seq
    # completion/expiry hooks, set by whoever submits the visit:
    # on_complete(event) fires inside the completion event (whose seq is
    # resume_seq); on_expire(now) fires at deadline expiry.
    on_complete: Optional[Callable[[Event], None]] = None
    on_expire: Optional[Callable[[float], None]] = None

    def _fire_complete(self, event: Event) -> None:
        # Scheduled directly as the completion callback — a bound method
        # instead of a fresh closure per dispatch.
        if self.on_complete is not None:
            self.on_complete(event)


class Wait:
    """``yield Wait(seconds)``: suspend the process for virtual time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds


class Acquire:
    """``yield Acquire(resource, visit)``: submit and await the outcome.

    The process suspends until the visit completes (resumed with
    ``"served"`` inside the completion event, under the visit's
    pre-allocated seq) or its deadline expires (resumed with
    ``"timeout"``).
    """

    __slots__ = ("resource", "visit")

    def __init__(self, resource: "Resource", visit: Visit) -> None:
        self.resource = resource
        self.visit = visit


class _Block:
    """``yield BLOCK``: suspend with no scheduled resume."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BLOCK"


BLOCK = _Block()


class Process:
    """A generator driven by the kernel.

    ``current_seq`` is the seq of the event the process is currently
    executing under — the rank a visit submitted *now* competes with.
    """

    __slots__ = ("_kernel", "_gen", "name", "current_seq", "alive",
                 "finished_at", "_resume_value")

    def __init__(self, kernel: EventClock,
                 gen: Generator[Union[Wait, Acquire, _Block], object, None],
                 name: str = "") -> None:
        self._kernel = kernel
        self._gen = gen
        self.name = name
        self.current_seq: Optional[int] = None
        self.alive = True
        self.finished_at: Optional[float] = None
        self._resume_value: object = None

    def start(self, at: float = 0, *, seq: Optional[int] = None) -> None:
        self._kernel.schedule(at, self._step, seq=seq)

    def resume_at(self, time: float, value: object = None, *,
                  seq: Optional[int] = None,
                  priority: int = PRIO_NORMAL) -> None:
        # A generator has at most one pending resume (a second send
        # before the first fired would already be a kernel bug), so the
        # value rides on the process instead of a per-resume closure.
        self._resume_value = value
        self._kernel.schedule(time, self._step_resume,
                              priority=priority, seq=seq)

    def resume_now(self, event: Event, value: object = None) -> None:
        """Continue inside the current event (same time, same seq)."""
        self._step(event, value)

    def _step_resume(self, event: Event) -> None:
        value = self._resume_value
        self._resume_value = None
        self._step(event, value)

    def _served(self, event: Event) -> None:
        self.resume_now(event, "served")

    def _expired(self, now: float) -> None:
        self.resume_at(now, "timeout")

    def _step(self, event: Event, value: object = None) -> None:
        self.current_seq = event.seq
        try:
            cmd = self._gen.send(value)
        except StopIteration:
            self.alive = False
            self.finished_at = self._kernel.now
            return
        if isinstance(cmd, Wait):
            self.resume_at(self._kernel.now + cmd.seconds)
        elif isinstance(cmd, Acquire):
            visit = cmd.visit
            visit.on_complete = self._served
            visit.on_expire = self._expired
            cmd.resource.submit(visit)
        elif cmd is BLOCK:
            pass  # whoever handed out BLOCK resumes us explicitly
        else:
            raise TypeError(f"process yielded {cmd!r}; "
                            "expected Wait, Acquire, or BLOCK")


class Resource:
    """An exclusive engine: per-lane FIFO queues, one owner at a time.

    The *scheduler* (any object with the
    :meth:`repro.serve.scheduler.Scheduler.select` contract) picks among
    the ready queue heads at each dispatch decision; ``None`` means
    kernel-native FIFO (min ``(ready, seq)``).  A context switch is
    charged whenever the engine changes owner — first occupancy is free,
    matching Fermi's save/restore between non-empty contexts.
    """

    def __init__(self, kernel: EventClock, ctx_switch_cost: float = 0.0,
                 scheduler=None,
                 on_serve: Optional[Callable[[Visit, float, bool], None]]
                 = None) -> None:
        self._kernel = kernel
        self.ctx_switch_cost = ctx_switch_cost
        self._scheduler = scheduler
        #: called as ``on_serve(visit, dispatch_at, switched)`` right
        #: before service starts — the lane layer's accounting hook.
        self._on_serve = on_serve
        self._queues: Dict[int, Deque[Visit]] = {}
        #: Fleet-scale fast paths, both behaviour-preserving: a heap of
        #: queue-*head* visits keyed ``(ready, seq)`` replaces the
        #: O(lanes) candidate scan under native FIFO (stale entries are
        #: lazily discarded), and the lazy-expiry sweep is skipped
        #: entirely while no queued visit carries a deadline.
        self._head_heap: List[Tuple[float, int, Visit]] = []
        self._deadlines = 0
        self.free_at: float = 0
        self.resident: Optional[int] = None
        self.switches = 0
        self.expiries = 0
        registry = obs_metrics.registry()
        self._switch_counter = registry.counter("engine.ctx_switches")
        self._expiry_counter = registry.counter("engine.deadline_expiries")

    def queue(self, lane: int) -> Deque[Visit]:
        return self._queues.setdefault(lane, deque())

    def _push_head(self, visit: Visit) -> None:
        heapq.heappush(self._head_heap, (visit.ready, visit.seq, visit))

    def submit(self, visit: Visit) -> None:
        """Enqueue at the current event; serve synchronously if free.

        Every visit pre-allocates its continuation seq here, at arrival
        rank — the oracle pushed a user's next event (allocating the
        next global seq) the moment its gpu event popped, not when the
        engine finished serving it.
        """
        if visit.resume_seq is None:
            visit.resume_seq = self._kernel.allocate_seq()
        queue = self.queue(visit.tenant)
        queue.append(visit)
        if visit.deadline is not None:
            self._deadlines += 1
        if self._scheduler is None and len(queue) == 1:
            self._push_head(visit)
        if self.free_at <= self._kernel.now:
            self._dispatch()

    # -- dispatch -------------------------------------------------------------

    def _select(self, candidates: List[Visit]) -> Visit:
        if self._scheduler is None:
            return min(candidates, key=lambda v: (v.ready, v.seq))
        visit = self._scheduler.select(candidates, self.resident,
                                       self._kernel.now)
        if visit not in candidates:  # defensive: scheduler contract
            raise ValueError(
                f"scheduler {self._scheduler!r} returned a "
                "non-candidate visit")
        return visit

    def _dispatch(self, event: Optional[Event] = None) -> None:
        now = self._kernel.now
        if self.free_at > now:
            return  # stale decision: the engine was re-dispatched already
        # Lazy expiry: queue heads whose deadline passed are abandoned,
        # never served, and their lane is notified now.  Same-time
        # resumes triggered by the expiry run before the engine is
        # re-arbitrated (PRIO_REDISPATCH), as the retired multiplexer
        # drained its heap before dispatching.  The sweep is skipped
        # while no queued visit carries a deadline (the common case for
        # fleet-scale lite lanes, where it would be O(lanes) per
        # dispatch).
        expired = False
        if self._deadlines:
            for queue in self._queues.values():
                popped = False
                while (queue and queue[0].deadline is not None
                       and now > queue[0].deadline):
                    visit = queue.popleft()
                    self._deadlines -= 1
                    popped = True
                    self.expiries += 1
                    self._expiry_counter.inc()
                    if visit.on_outcome is not None:
                        visit.on_outcome("timeout")
                    if visit.on_expire is not None:
                        visit.on_expire(now)
                    expired = True
                if popped and queue and self._scheduler is None:
                    self._push_head(queue[0])
        if expired:
            self._kernel.schedule(now, self._dispatch,
                                  priority=PRIO_REDISPATCH)
            return
        if self._scheduler is None:
            # Native FIFO: pop the min-(ready, seq) queue head straight
            # off the head heap.  Entries whose visit is no longer its
            # queue's head (served or expired since the push) are
            # stale; drop them on sight.
            heap = self._head_heap
            visit = None
            while heap:
                head = heap[0][2]
                queue = self._queues.get(head.tenant)
                if queue and queue[0] is head:
                    visit = head
                    break
                heapq.heappop(heap)
            if visit is None:
                return
            heapq.heappop(heap)
        else:
            candidates = [q[0] for q in self._queues.values() if q]
            if not candidates:
                return
            visit = self._select(candidates)
        queue = self._queues[visit.tenant]
        queue.popleft()
        if visit.deadline is not None:
            self._deadlines -= 1
        if self._scheduler is None and queue:
            self._push_head(queue[0])

        start = now
        switched = self.resident is not None and self.resident != visit.tenant
        if switched:
            self.switches += 1
            self._switch_counter.inc()
        tracer = _OBS.tracer
        if tracer is not None:
            tracer.event("engine.dispatch", "engine", now, 0.0,
                         tenant_index=visit.tenant, label=visit.label,
                         switched=switched, waited=now - visit.ready)
        if self._on_serve is not None:
            self._on_serve(visit, start, switched)
        if switched:
            start += self.ctx_switch_cost
        self.resident = visit.tenant
        finish = start + visit.gpu_seconds
        self.free_at = finish
        if visit.on_outcome is not None:
            visit.on_outcome("served")
        # Engine-free arbitration first, then the lane's continuation
        # under its arrival-rank seq.
        self._kernel.schedule(finish, self._dispatch, priority=PRIO_DISPATCH)
        self._kernel.schedule(finish, visit._fire_complete,
                              seq=visit.resume_seq)


# ---------------------------------------------------------------------------
# Lane layer: tenant unit streams over one shared engine.
# ---------------------------------------------------------------------------


@dataclass
class WorkUnit:
    """One schedulable unit of tenant work.

    ``host_seconds`` of sequential host work (overlappable across
    tenants), followed by an optional exclusive GPU-engine visit of
    ``gpu_seconds``.  ``gpu_seconds=None`` means no engine visit at all;
    ``0.0`` is a real (zero-duration) visit that still occupies the
    engine and can force a context switch — matching the analytic
    model's treatment of zero-duration gpu segments.

    ``deadline`` is relative to the moment the visit becomes ready: a
    visit still queued ``deadline`` seconds after its host part finished
    is abandoned (timeout) instead of served.  ``on_outcome`` is called
    with ``"served"`` or ``"timeout"`` when the engine decides.

    ``idle=True`` marks the unit as pure waiting (retry backoff): it
    advances the lane's timeline by ``host_seconds`` and is recorded as
    a ``backoff`` trace event, but does not count as host work and may
    not carry a GPU visit.
    """

    host_seconds: float
    gpu_seconds: Optional[float] = None
    label: str = ""
    deadline: Optional[float] = None
    on_outcome: Optional[Callable[[str], None]] = None
    idle: bool = False


@dataclass
class TenantLane:
    """One tenant's unit stream plus its service limits.

    ``max_inflight`` caps how many GPU visits may be queued or in
    service at once; host-side production stalls (backpressure) when
    the cap is reached.  ``max_inflight=1`` gives the strict
    host/gpu alternation of the analytic multi-user model.
    """

    units: Union[Iterable[WorkUnit], Iterator[WorkUnit]]
    weight: float = 1.0
    max_inflight: int = 1
    name: str = ""
    #: Called with the kernel time at which the unit stream ran dry —
    #: the fleet tier uses this to mark a machine session complete.
    on_exhausted: Optional[Callable[[float], None]] = None


@dataclass
class LaneTimeline:
    """Per-lane accounting over one kernel run."""

    finish_time: float = 0.0
    gpu_busy: float = 0.0
    host_busy: float = 0.0
    waits: float = 0.0


@dataclass
class LaneResult:
    """Outcome of :func:`run_lanes`."""

    makespan: float
    timelines: List[LaneTimeline]
    context_switches: int
    served: List[int]
    timed_out: List[int]
    stall_seconds: List[float]           # host blocked on the inflight cap
    events: List[Tuple[int, TraceEvent]] = field(default_factory=list)
    processes: List[Process] = field(default_factory=list)

    @property
    def gpu_utilization(self) -> float:
        """Share of the makespan the engine spent serving visits."""
        if self.makespan <= 0.0:
            return 0.0
        return sum(t.gpu_busy for t in self.timelines) / self.makespan

    def stats(self) -> Dict[str, float]:
        """Summary dict of the analytic model's and the serving
        cross-check's ``(makespan, timelines, stats)`` results."""
        return {
            "context_switches": float(self.context_switches),
            "gpu_utilization": self.gpu_utilization,
        }


class _LaneState:
    """Mutable runtime of one lane (shared between hooks and process)."""

    __slots__ = ("index", "spec", "timeline", "outstanding", "blocked",
                 "stall_since", "stall", "served", "timed_out", "host_free",
                 "process")

    def __init__(self, index: int, spec: TenantLane) -> None:
        self.index = index
        self.spec = spec
        self.timeline = LaneTimeline()
        self.outstanding = 0
        self.blocked = False
        self.stall_since = 0.0
        self.stall = 0.0
        self.served = 0
        self.timed_out = 0
        self.host_free = 0.0
        self.process: Optional[Process] = None


class LaneRun:
    """An in-flight lane run over one shared engine and kernel.

    :func:`run_lanes` is ``LaneRun(...)`` + ``kernel.run()`` +
    :meth:`finish` — splitting the three steps is what lets several
    independent engines (the fleet tier's machines) prepare their lanes
    on ONE shared :class:`EventClock` and drain together, so their
    virtual timelines interleave instead of running back to back.

    Construction schedules every lane's t=0 wakeup but pops nothing;
    the caller drains the kernel (once, however many LaneRuns share it)
    and then reads each run's :meth:`finish`.  :meth:`add_lane` admits
    a new lane mid-run at the kernel's current time — the fleet tier's
    migration landing point.
    """

    def __init__(self, lanes: Sequence[TenantLane], scheduler,
                 ctx_switch_cost: float, kernel: EventClock) -> None:
        self.kernel = kernel
        self.ctx_switch_cost = ctx_switch_cost
        self._states: List[_LaneState] = []
        self._lane_events: List[Tuple[int, TraceEvent]] = []
        self._lane_names: List[str] = []
        self.engine = Resource(kernel, ctx_switch_cost, scheduler,
                               on_serve=self._on_serve)
        for lane in lanes:
            self._admit(lane)
        for state in self._states:  # t=0 wakeups in lane order
            state.process.start(0.0)

    # -- lane admission -----------------------------------------------------

    def _admit(self, spec: TenantLane) -> _LaneState:
        index = len(self._states)
        state = _LaneState(index, spec)
        self._states.append(state)
        self._lane_names.append(spec.name or f"lane{index}")
        state.process = Process(self.kernel, self._lane_process(state),
                                name=self._lane_names[index])
        return state

    def add_lane(self, spec: TenantLane) -> int:
        """Admit *spec* mid-run, starting at the kernel's current time.

        Returns the new lane's index.  The lane's first wakeup is a
        fresh kernel event at ``kernel.now``, so a lane added from
        inside a running event begins producing after that event —
        exactly where a migrated-in session resumes.
        """
        state = self._admit(spec)
        state.process.start(self.kernel.now)
        return state.index

    # -- accounting hooks ---------------------------------------------------

    def _record(self, tenant: int, start: float, seconds: float,
                category: str) -> None:
        if seconds > 0.0:
            self._lane_events.append(
                (tenant, TraceEvent(start, seconds, category)))
            self.kernel.charge(start, seconds, category)
            tracer = _OBS.tracer
            if tracer is not None:
                # Tenant-attributed schedule events: these are what the
                # Chrome exporter turns into per-tenant lane tracks.
                tracer.event(category, category, start, seconds,
                             tenant=self._lane_names[tenant], lane=True)

    def _on_serve(self, visit: Visit, dispatch_at: float,
                  switched: bool) -> None:
        state = self._states[visit.tenant]
        state.timeline.waits += dispatch_at - visit.ready
        start = dispatch_at
        if switched:
            self._record(visit.tenant, start, self.ctx_switch_cost,
                         "ctx_switch")
            start += self.ctx_switch_cost
        finish = start + visit.gpu_seconds
        state.timeline.gpu_busy += visit.gpu_seconds
        state.timeline.finish_time = max(state.timeline.finish_time, finish)
        self._record(visit.tenant, start, visit.gpu_seconds, "gpu")
        state.served += 1

    def _release_slot(self, state: _LaneState, now: float, outcome: str,
                      event: Optional[Event] = None) -> None:
        # The stall interval is handed to the resumed produce and only
        # charged once it actually yields another unit: trailing blocks
        # after an exhausted stream delayed nothing.
        state.outstanding -= 1
        if state.blocked:
            state.blocked = False
            stall = max(now - state.stall_since, 0.0)
            if event is not None:
                # Resume inside the completion event: same time, and the
                # visit's pre-allocated seq keeps oracle arrival rank.
                state.process.resume_now(event, (outcome, stall))
            else:
                state.process.resume_at(max(state.host_free, now),
                                        (outcome, stall))

    def _on_complete(self, event: Event, state: _LaneState) -> None:
        self._release_slot(state, event.time, "served", event)

    def _on_expire(self, now: float, state: _LaneState) -> None:
        state.timed_out += 1
        self._release_slot(state, now, "timeout")

    # -- lane production ----------------------------------------------------

    def _lane_process(self, state: _LaneState
                      ) -> Generator[Union[Wait, Acquire, _Block],
                                     object, None]:
        kernel = self.kernel
        spec = state.spec
        units = iter(spec.units)
        pending_stall: Optional[float] = None
        while True:
            try:
                unit = next(units)
            except StopIteration:
                break
            if pending_stall is not None:
                state.stall += pending_stall
                pending_stall = None
            now = kernel.now
            done = now + unit.host_seconds
            if unit.idle:
                # Backoff sleep: occupies the lane's timeline without
                # counting as host work (the tenant is waiting, not
                # producing) and never carries an engine visit.
                state.timeline.finish_time = max(
                    state.timeline.finish_time, done)
                state.host_free = done
                self._record(state.index, now, unit.host_seconds, "backoff")
                yield Wait(unit.host_seconds)
                continue
            state.timeline.host_busy += unit.host_seconds
            state.timeline.finish_time = max(state.timeline.finish_time, done)
            state.host_free = done
            self._record(state.index, now, unit.host_seconds, "host")
            if unit.gpu_seconds is None:
                yield Wait(unit.host_seconds)
                continue
            if unit.host_seconds > 0.0:
                # Arrive at the engine when the host part finishes; the
                # arrival event's seq is the visit's FIFO rank.
                yield Wait(unit.host_seconds)
            visit = Visit(
                tenant=state.index, seq=state.process.current_seq,
                ready=done, gpu_seconds=unit.gpu_seconds, weight=spec.weight,
                deadline=(None if unit.deadline is None
                          else done + unit.deadline),
                label=unit.label, on_outcome=unit.on_outcome)
            visit.on_complete = lambda ev, s=state: self._on_complete(ev, s)
            visit.on_expire = lambda at, s=state: self._on_expire(at, s)
            state.outstanding += 1
            self.engine.submit(visit)
            if state.outstanding < spec.max_inflight:
                yield Wait(0.0)
            else:
                state.blocked = True
                state.stall_since = done
                resumed = yield BLOCK
                pending_stall = resumed[1]
        state.timeline.finish_time = max(state.timeline.finish_time,
                                         kernel.now)
        if spec.on_exhausted is not None:
            spec.on_exhausted(kernel.now)

    # -- results ------------------------------------------------------------

    def finish(self) -> LaneResult:
        """Assemble the result after the shared kernel has drained."""
        states = self._states
        makespan = max((s.timeline.finish_time for s in states), default=0.0)
        return LaneResult(
            makespan=makespan,
            timelines=[s.timeline for s in states],
            context_switches=self.engine.switches,
            served=[s.served for s in states],
            timed_out=[s.timed_out for s in states],
            stall_seconds=[s.stall for s in states],
            events=self._lane_events,
            processes=[s.process for s in states])


def run_lanes(lanes: Sequence[TenantLane], scheduler,
              ctx_switch_cost: float,
              kernel: Optional[EventClock] = None) -> LaneResult:
    """Run every lane to exhaustion over one shared engine.

    This is the kernel-native core every multi-tenant timing surface
    calls (``simulate_concurrent``, ``schedule_segments``, and
    :class:`~repro.serve.engine.ServeEngine` via :class:`LaneRun`): each
    lane becomes a real :class:`Process` pulling its unit stream in
    virtual time (so a serving engine's streams execute sealed requests
    at production time), all GPU visits arbitrate through one
    :class:`Resource` under *scheduler*, and the accounting —
    timelines, waits, stalls, context switches, per-lane trace events —
    preserves the retired implementations' semantics.
    """
    kernel = kernel if kernel is not None else EventClock()
    run = LaneRun(lanes, scheduler, ctx_switch_cost, kernel)
    kernel.run()
    return run.finish()
