"""Retired timing-engine implementations, kept as differential oracles.

Before the unified discrete-event kernel (:mod:`repro.sim.engine`), the
repo carried two independent event loops: the analytic multi-user model
(``repro.core.multiuser.simulate_concurrent``) and the serving layer's
virtual-time multiplexer (the retired ``repro.serve.timeline.multiplex``).
Both now run on the kernel, which reports its own
:class:`~repro.sim.engine.LaneResult`/``LaneTimeline``; the original
loop bodies moved here, verbatim apart from naming and building the
kernel's ``LaneTimeline`` for their per-user rows, so the property
suite can pin the kernel against them forever:

* :func:`oracle_simulate_concurrent` — the analytic oracle.  The kernel
  with no scheduler (native FIFO) must match it *exactly on all
  inputs*, simultaneous-event ties included.
* :func:`oracle_multiplex` — the retired scheduler-driven multiplexer.
  It diverged from the analytic oracle on tie-breaks (it drained every
  event up to the dispatch instant before arbitrating; the oracle
  pre-reserved the engine at pop).  It remains the reference for
  non-FIFO schedulers, whose semantics the kernel preserves.

These functions are test fixtures, not public API — do not import them
from production code.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.multiuser import Segment
from repro.sim.engine import LaneTimeline, TenantLane, Visit
from repro.sim.trace import TraceEvent


def oracle_simulate_concurrent(
        users: Sequence[Sequence[Segment]], ctx_switch_cost: float
        ) -> Tuple[float, List[LaneTimeline], Dict[str, float]]:
    """The retired ``simulate_concurrent`` event loop, verbatim."""
    num_users = len(users)
    cursors = [0] * num_users           # next segment index per user
    timelines = [LaneTimeline(0.0, 0.0, 0.0, 0.0) for _ in range(num_users)]

    gpu_free_at = 0.0
    resident_ctx = None
    switches = 0
    events: List[Tuple[float, int, int]] = []  # (time, seq, user)
    seq = itertools.count()
    for user in range(num_users):
        heapq.heappush(events, (0.0, next(seq), user))

    while events:
        now, _tie, user = heapq.heappop(events)
        segments = users[user]
        if cursors[user] >= len(segments):
            timelines[user].finish_time = max(timelines[user].finish_time, now)
            continue
        segment = segments[cursors[user]]
        cursors[user] += 1
        if segment.kind == "host":
            timelines[user].host_busy += segment.duration
            finish = now + segment.duration
        else:
            start = max(now, gpu_free_at)
            timelines[user].waits += start - now
            if resident_ctx != user:
                if resident_ctx is not None:
                    start += ctx_switch_cost
                    switches += 1
                resident_ctx = user
            finish = start + segment.duration
            timelines[user].gpu_busy += segment.duration
            gpu_free_at = finish
        timelines[user].finish_time = finish
        heapq.heappush(events, (finish, next(seq), user))

    makespan = max((t.finish_time for t in timelines), default=0.0)
    stats = {
        "context_switches": float(switches),
        "gpu_utilization": (sum(t.gpu_busy for t in timelines) / makespan
                            if makespan > 0 else 0.0),
    }
    return makespan, timelines, stats


@dataclass
class OracleMultiplexResult:
    """Field-compatible subset of :class:`repro.sim.engine.LaneResult`."""

    makespan: float
    timelines: List[LaneTimeline]
    context_switches: int
    served: List[int]
    timed_out: List[int]
    stall_seconds: List[float]
    events: List[Tuple[int, TraceEvent]] = field(default_factory=list)


def oracle_multiplex(lanes: Sequence[TenantLane], scheduler,
                     ctx_switch_cost: float) -> OracleMultiplexResult:
    """The retired ``multiplex`` event loop, verbatim."""
    n = len(lanes)
    iters = [iter(lane.units) for lane in lanes]
    host_free = [0.0] * n
    outstanding = [0] * n
    blocked = [False] * n
    stall_since = [0.0] * n
    stall_pending: Dict[int, float] = {}
    queues: List[Deque[Visit]] = [deque() for _ in range(n)]
    timelines = [LaneTimeline(0.0, 0.0, 0.0, 0.0) for _ in range(n)]
    served = [0] * n
    timed_out = [0] * n
    stall = [0.0] * n
    lane_events: List[Tuple[int, TraceEvent]] = []

    events: List[Tuple[float, int, str, int]] = []
    eseq = itertools.count()
    gpu_free = 0.0
    resident: Optional[int] = None
    switches = 0

    for tenant in range(n):
        heapq.heappush(events, (0.0, next(eseq), "produce", tenant))

    def produce(tenant: int, now: float, tie: int) -> None:
        pending_stall = stall_pending.pop(tenant, None)
        try:
            unit = next(iters[tenant])
        except StopIteration:
            timelines[tenant].finish_time = max(
                timelines[tenant].finish_time, now)
            return
        if pending_stall is not None:
            stall[tenant] += pending_stall
        done = now + unit.host_seconds
        timelines[tenant].host_busy += unit.host_seconds
        timelines[tenant].finish_time = max(
            timelines[tenant].finish_time, done)
        host_free[tenant] = done
        if unit.host_seconds > 0.0:
            lane_events.append(
                (tenant, TraceEvent(now, unit.host_seconds, "host")))
        if unit.gpu_seconds is None:
            heapq.heappush(events, (done, next(eseq), "produce", tenant))
            return
        deadline = None if unit.deadline is None else done + unit.deadline
        visit = Visit(
            tenant=tenant, seq=tie, ready=done,
            gpu_seconds=unit.gpu_seconds, weight=lanes[tenant].weight,
            deadline=deadline, label=unit.label,
            on_outcome=unit.on_outcome)
        queues[tenant].append(visit)
        outstanding[tenant] += 1
        if outstanding[tenant] < lanes[tenant].max_inflight:
            heapq.heappush(events, (done, next(eseq), "produce", tenant))
        else:
            blocked[tenant] = True
            stall_since[tenant] = done
            visit.resume_seq = next(eseq)

    def release_slot(tenant: int, now: float,
                     seq: Optional[int] = None) -> None:
        outstanding[tenant] -= 1
        if blocked[tenant]:
            blocked[tenant] = False
            stall_pending[tenant] = max(now - stall_since[tenant], 0.0)
            heapq.heappush(events, (max(host_free[tenant], now),
                                    next(eseq) if seq is None else seq,
                                    "produce", tenant))

    while events or any(queues):
        heads = [q[0] for q in queues if q]
        if not heads:
            now, tie, kind, tenant = heapq.heappop(events)
            if kind == "produce":
                produce(tenant, now, tie)
            else:
                release_slot(tenant, now, tie)
            continue

        dispatch_at = max(gpu_free, min(v.ready for v in heads))
        if events and events[0][0] <= dispatch_at:
            now, tie, kind, tenant = heapq.heappop(events)
            if kind == "produce":
                produce(tenant, now, tie)
            else:
                release_slot(tenant, now, tie)
            continue

        expired = False
        for queue in queues:
            while (queue and queue[0].deadline is not None
                   and dispatch_at > queue[0].deadline):
                visit = queue.popleft()
                timed_out[visit.tenant] += 1
                if visit.on_outcome is not None:
                    visit.on_outcome("timeout")
                release_slot(visit.tenant, dispatch_at)
                expired = True
        if expired:
            continue

        candidates = [q[0] for q in queues if q and q[0].ready <= dispatch_at]
        visit = scheduler.select(candidates, resident, dispatch_at)
        if visit not in candidates:
            raise ValueError(
                f"scheduler {scheduler!r} returned a non-candidate visit")
        queues[visit.tenant].popleft()

        start = dispatch_at
        timelines[visit.tenant].waits += start - visit.ready
        if resident is not None and resident != visit.tenant:
            switches += 1
            if ctx_switch_cost > 0.0:
                lane_events.append((visit.tenant, TraceEvent(
                    start, ctx_switch_cost, "ctx_switch")))
            start += ctx_switch_cost
        resident = visit.tenant
        finish = start + visit.gpu_seconds
        timelines[visit.tenant].gpu_busy += visit.gpu_seconds
        timelines[visit.tenant].finish_time = max(
            timelines[visit.tenant].finish_time, finish)
        if visit.gpu_seconds > 0.0:
            lane_events.append((visit.tenant, TraceEvent(
                start, visit.gpu_seconds, "gpu")))
        gpu_free = finish
        served[visit.tenant] += 1
        if visit.on_outcome is not None:
            visit.on_outcome("served")
        resume = (visit.resume_seq if visit.resume_seq is not None
                  else next(eseq))
        heapq.heappush(events, (finish, resume, "complete", visit.tenant))

    makespan = max((t.finish_time for t in timelines), default=0.0)
    return OracleMultiplexResult(
        makespan=makespan, timelines=timelines, context_switches=switches,
        served=served, timed_out=timed_out, stall_seconds=stall,
        events=lane_events)
