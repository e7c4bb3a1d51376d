"""Differential properties: the unified kernel vs the retired engines.

The discrete-event kernel (:mod:`repro.sim.engine`) replaced three
independent event loops; the originals live on in
:mod:`tests.property.oracles` and this suite pins the kernel against
them:

* native-FIFO kernel runs reproduce the retired
  ``simulate_concurrent`` **exactly on all inputs** — makespan, every
  per-user timeline field, and the stats dict — including tie-saturated
  inputs built from a tiny duration grid with zero-length segments;
* ``schedule_segments`` with ``FifoScheduler`` matches the same oracle
  exactly (the tie-break divergence the old multiplexer documented is
  fixed, not tolerated);
* all three schedulers match the retired multiplexer on tie-free
  inputs, including the deadline/backpressure paths the analytic
  oracle does not model;
* the kernel evaluation of the pipelined copy
  (:func:`repro.sim.pipeline.pipelined_time_events`) equals the closed
  form bit for bit in exact (Fraction) arithmetic.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.multiuser import Segment, simulate_concurrent
from repro.serve.scheduler import (
    DeficitFairScheduler,
    FifoScheduler,
    RoundRobinScheduler,
)
from repro.serve.timeline import schedule_segments
from repro.sim.engine import TenantLane, WorkUnit, run_lanes
from repro.sim.pipeline import pipelined_time, pipelined_time_events
from tests.property.oracles import (
    oracle_multiplex,
    oracle_simulate_concurrent,
)

MS = 1e-3
US = 1e-6

# Tie saturation: a tiny duration grid (with genuine zero-length
# segments) makes simultaneous arrivals, completions, and engine-free
# instants the common case rather than the measure-zero one.
tie_durations = st.sampled_from([0.0, 0.5, 1.0, 2.0])
tie_switch_costs = st.sampled_from([0.0, 0.25, 1.0])


@st.composite
def tie_heavy_users(draw):
    """Arbitrary per-user segment lists drawn from the tie grid."""
    n = draw(st.integers(min_value=1, max_value=4))
    users = []
    for _ in range(n):
        m = draw(st.integers(min_value=0, max_value=6))
        users.append([Segment(draw(st.sampled_from(["host", "gpu"])),
                              draw(tie_durations), "s")
                      for _ in range(m)])
    return users


def assert_exactly_equal(mine, oracle):
    """Bitwise equality of (makespan, timelines, stats) triples."""
    makespan, timelines, stats = mine
    o_makespan, o_timelines, o_stats = oracle
    assert makespan == o_makespan
    assert stats == o_stats
    assert len(timelines) == len(o_timelines)
    for timeline, expected in zip(timelines, o_timelines):
        assert timeline.finish_time == expected.finish_time
        assert timeline.gpu_busy == expected.gpu_busy
        assert timeline.host_busy == expected.host_busy
        assert timeline.waits == expected.waits


class TestKernelMatchesAnalyticOracle:
    """Native FIFO == retired ``simulate_concurrent``, ties included."""

    @given(users=tie_heavy_users(), cost=tie_switch_costs)
    @settings(max_examples=300, deadline=None)
    def test_simulate_concurrent_exact(self, users, cost):
        assert_exactly_equal(simulate_concurrent(users, cost),
                             oracle_simulate_concurrent(users, cost))

    @given(users=tie_heavy_users(), cost=tie_switch_costs)
    @settings(max_examples=300, deadline=None)
    def test_fifo_scheduler_exact(self, users, cost):
        """The satellite fix: FIFO serving is oracle-equal on ALL
        inputs, not just tie-free ones."""
        assert_exactly_equal(schedule_segments(users, FifoScheduler(), cost),
                             oracle_simulate_concurrent(users, cost))


# Tie-free inputs: durations unique by construction, so arrival,
# completion, and engine-free instants almost surely never coincide
# (sums of distinct floats).  On these the kernel must reproduce the
# retired multiplexer under every scheduler — the kernel changed only
# the simultaneous-event rule.
#
# "Almost surely" is not "surely": float rounding can collapse two
# distinct instants onto one (t + a == t + b with a != b), and on such
# a manufactured tie the kernel's pre-reservation rule and the retired
# multiplexer's drain-then-dispatch rule hand a *stateful* scheduler
# (DRR credit, round-robin rotation) different candidate sets — a
# documented divergence, not a bug.  ``coincident_instants`` detects
# the collapse on the oracle's own timeline so those draws are
# rejected instead of asserted on.
def coincident_instants(oracle_events, deadline=None):
    """True when two timeline instants collapsed onto the same float.

    Arrival instants (host-segment ends) and engine-free instants
    (gpu-segment ends) must all be distinct for the tie-free premise to
    hold; when visits carry a *deadline*, each instant's expiry time
    joins the set (expiry races dispatch the same way arrivals do).
    """
    instants = []
    for _tenant, event in oracle_events:
        if event.category not in ("host", "gpu"):
            continue
        end = event.start + event.duration
        instants.append(end)
        if deadline is not None:
            instants.append(end + deadline)
    return len(instants) != len(set(instants))


@st.composite
def tie_free_users(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    per_user = draw(st.lists(st.integers(min_value=1, max_value=4),
                             min_size=n, max_size=n))
    total = 2 * sum(per_user)
    pool = draw(st.lists(
        st.floats(min_value=20 * US, max_value=2 * MS),
        min_size=total, max_size=total, unique=True))
    users, cursor = [], 0
    for count in per_user:
        segments = []
        for _ in range(count):
            segments.append(Segment("host", pool[cursor], "h"))
            segments.append(Segment("gpu", pool[cursor + 1], "g"))
            cursor += 2
        users.append(segments)
    return users


def fresh_schedulers():
    return st.sampled_from(["fifo", "rr", "fair"])


def build_scheduler(name):
    return {"fifo": FifoScheduler,
            "rr": RoundRobinScheduler,
            "fair": lambda: DeficitFairScheduler(600 * US)}[name]()


class TestKernelMatchesRetiredMultiplexer:
    @given(users=tie_free_users(), cost=st.sampled_from([0.0, 120 * US]),
           name=fresh_schedulers())
    @settings(max_examples=150, deadline=None)
    def test_all_schedulers_exact_on_tie_free_inputs(self, users, cost, name):
        mine = schedule_segments(users, build_scheduler(name), cost)
        lanes = [TenantLane(units=[
            WorkUnit(s.duration, None, s.label) if s.kind == "host"
            else WorkUnit(0.0, s.duration, s.label) for s in segments],
            max_inflight=1) for segments in users]
        oracle = oracle_multiplex(lanes, build_scheduler(name), cost)
        assume(not coincident_instants(oracle.events))
        assert_exactly_equal(
            mine, (oracle.makespan, oracle.timelines,
                   {"context_switches": float(oracle.context_switches),
                    "gpu_utilization": (sum(t.gpu_busy
                                            for t in oracle.timelines)
                                        / oracle.makespan
                                        if oracle.makespan > 0 else 0.0)}))

    @given(users=tie_free_users(), name=fresh_schedulers(),
           inflight=st.integers(min_value=1, max_value=3),
           deadline=st.floats(min_value=50 * US, max_value=4 * MS))
    @settings(max_examples=150, deadline=None)
    def test_backpressure_and_deadlines_match(self, users, name, inflight,
                                              deadline):
        """The paths the analytic oracle never had: inflight caps
        (host stalls) and lazy deadline expiry (timeouts)."""
        def lanes():
            return [TenantLane(units=[
                WorkUnit(s.duration, None, s.label) if s.kind == "host"
                else WorkUnit(0.0, s.duration, s.label, deadline=deadline)
                for s in segments], max_inflight=inflight)
                for segments in users]
        mine = run_lanes(lanes(), build_scheduler(name), 120 * US)
        oracle = oracle_multiplex(lanes(), build_scheduler(name), 120 * US)
        assume(not coincident_instants(oracle.events, deadline=deadline))
        assert mine.makespan == oracle.makespan
        assert mine.served == oracle.served
        assert mine.timed_out == oracle.timed_out
        assert mine.stall_seconds == oracle.stall_seconds
        assert mine.context_switches == oracle.context_switches


# Exact rationals keep float association out of the comparison: the
# kernel run and the closed form must agree bit for bit.
fractions = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(40),
                         max_denominator=16)
small_fractions = st.fractions(min_value=0, max_value=Fraction(8),
                               max_denominator=8)


class TestPipelineKernelMatchesClosedForm:
    @given(nbytes=st.fractions(min_value=0, max_value=Fraction(300),
                               max_denominator=8),
           bandwidths=st.lists(fractions, min_size=0, max_size=4),
           chunk=fractions,
           latencies=st.lists(small_fractions, min_size=0, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_exact_in_rational_arithmetic(self, nbytes, bandwidths, chunk,
                                          latencies):
        latencies = latencies[:len(bandwidths)] if bandwidths else latencies
        assert (pipelined_time_events(nbytes, bandwidths, chunk, latencies)
                == pipelined_time(nbytes, bandwidths, chunk, latencies))

    @given(nbytes=st.floats(min_value=0.0, max_value=500.0),
           bandwidths=st.lists(st.floats(min_value=0.5, max_value=20.0),
                               min_size=1, max_size=3),
           chunk=st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_close_in_float_arithmetic(self, nbytes, bandwidths, chunk):
        assert pipelined_time_events(nbytes, bandwidths, chunk) == (
            pytest.approx(pipelined_time(nbytes, bandwidths, chunk),
                          rel=1e-12, abs=1e-12))
