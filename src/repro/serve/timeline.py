"""Virtual-time multiplexing: one GPU engine, many tenants.

The serving engine executes tenants' sealed requests one at a time on
the shared machine (real bytes, real crypto), but *concurrency* is a
scheduling question: host-side work of different tenants overlaps
freely while GPU-engine work serializes, paying a context-switch cost
whenever the engine changes owner (paper Section 4.5).  This module is
the serving layer's cross-check surface over the shared discrete-event
kernel (:mod:`repro.sim.engine`): it schedules the analytic model's
per-user segments with the dispatch order chosen by a pluggable
:class:`~repro.serve.scheduler.Scheduler`, and reports the kernel's own
per-lane timelines and a makespan.  :class:`~repro.serve.ServeEngine`
drives :func:`~repro.sim.engine.run_lanes` itself, with real sealed
requests as the unit stream.

Historically this module carried its own event loop, which diverged
from the analytic oracle (:func:`repro.core.multiuser.simulate_concurrent`)
on simultaneous-event tie-breaks: it drained every event up to the
dispatch instant before arbitrating, while the oracle pre-reserved the
engine the moment a gpu event popped.  The unified kernel's single
ordering rule — arrival-order seqs, synchronous dispatch at arrival,
engine-free decisions ahead of same-time events — closes that gap:
FIFO now reproduces the oracle *exactly on all inputs*, ties included
(pinned by ``tests/property/test_prop_engine.py`` against the retired
implementations in ``tests/property/oracles.py``).  Every
work-conserving scheduler still matches the oracle exactly on
single-visit-per-tenant inputs (busy-period order-invariance), and the
deficit-fair scheduler tracks it within ~1e-2 relative on
workload-shaped inputs, which is what makes serving-layer makespans
cross-checkable against the Figures 8/9 machinery.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.multiuser import Segment, segments_to_units
from repro.sim.engine import LaneTimeline, TenantLane, run_lanes


def schedule_segments(users: Sequence[Sequence[Segment]], scheduler,
                      ctx_switch_cost: float
                      ) -> Tuple[float, List[LaneTimeline], Dict[str, float]]:
    """Scheduler-driven drop-in for ``multiuser.simulate_concurrent``.

    Takes the same per-user segment lists and context-switch cost, and
    returns the same ``(makespan, timelines, stats)`` tuple — with the
    engine's arbitration chosen by *scheduler* instead of hard-wired
    FIFO.  With :class:`~repro.serve.scheduler.FifoScheduler` the result
    matches ``simulate_concurrent`` exactly on **all** inputs,
    simultaneous-event ties included — both run on the same kernel, and
    the kernel's arrival-order rule is pinned to the retired oracle by
    the property suite.  This is the cross-check bridge between the
    serving layer and the paper's Figures 8/9 model.
    """
    lanes = [TenantLane(units=segments_to_units(segments), max_inflight=1)
             for segments in users]
    result = run_lanes(lanes, scheduler, ctx_switch_cost)
    return result.makespan, result.timelines, result.stats()
