"""Unit tests for clock listeners and charge traces."""

import pytest

from repro.obs.tracer import SpanTracer
from repro.sim.clock import SimClock
from repro.sim.trace import TraceEvent, render_lanes


class TestClockListeners:
    def test_listener_receives_charges(self):
        clock = SimClock()
        seen = []
        clock.add_listener(lambda s, d, c: seen.append((s, d, c)))
        clock.advance(1.0, "a")
        clock.advance(0.5, "b")
        assert seen == [(0.0, 1.0, "a"), (1.0, 0.5, "b")]

    def test_remove_listener(self):
        clock = SimClock()
        seen = []
        listener = lambda s, d, c: seen.append(c)
        clock.add_listener(listener)
        clock.advance(1.0, "a")
        clock.remove_listener(listener)
        clock.advance(1.0, "b")
        assert seen == ["a"]


class TestTraceRecorder:
    """A clock's charge trace, recorded as :class:`SpanTracer` leaves:
    every charge made while the tracer is attached, outside any open
    span, becomes one root leaf span."""

    def test_records_only_while_attached(self):
        clock = SimClock()
        tracer = SpanTracer()
        clock.advance(1.0, "before")
        tracer.attach(clock)
        clock.advance(2.0, "during")
        tracer.detach()
        clock.advance(3.0, "after")
        assert [leaf.category for leaf in tracer.spans()] == ["during"]

    def test_zero_duration_charges_skipped(self):
        clock = SimClock()
        tracer = SpanTracer()
        tracer.attach(clock)
        clock.advance(0.0, "noop")
        clock.advance(1.0, "real")
        assert len(tracer.roots) == 1

    def test_queries(self):
        clock = SimClock()
        tracer = SpanTracer()
        tracer.attach(clock)
        clock.advance(1.0, "copy")
        clock.advance(2.0, "compute")
        clock.advance(0.5, "copy")
        copies = [leaf for leaf in tracer.spans() if leaf.category == "copy"]
        assert sum(leaf.duration for leaf in tracer.spans()) \
            == pytest.approx(3.5)
        assert sum(leaf.duration for leaf in copies) == pytest.approx(1.5)
        assert tracer.find("compute").start == pytest.approx(1.0)
        assert len(copies) == 2

    def test_event_end(self):
        clock = SimClock()
        tracer = SpanTracer()
        tracer.attach(clock)
        clock.advance(1.5, "x")
        assert tracer.roots[0].end == pytest.approx(1.5)

    def test_render_empty(self):
        assert "empty" in render_lanes({})

    def test_render_rows_per_category(self):
        """Leaves grouped by category render one row per category."""
        clock = SimClock()
        tracer = SpanTracer()
        tracer.attach(clock)
        clock.advance(1.0, "alpha")
        clock.advance(1.0, "gpu")
        rows = {}
        for leaf in tracer.spans():
            rows.setdefault(leaf.category, []).append(
                TraceEvent(leaf.start, leaf.duration, "gpu"))
        text = render_lanes(rows, width=20)
        assert "alpha" in text and "gpu" in text and "#" in text

    def test_render_lanes_single_instant(self):
        lanes = {"t0": [TraceEvent(1.0, 0.0, "gpu")]}
        text = render_lanes(lanes, width=12)
        assert "0.000 ms" in text
        assert "#" in text

    def test_time_axis_zero_span_maps_to_column_zero(self):
        from repro.sim.trace import _time_axis
        span, column = _time_axis([TraceEvent(5.0, 0.0, "x")], 40)
        assert span == 0.0
        assert column(5.0) == 0
        span, column = _time_axis(
            [TraceEvent(0.0, 1.0, "x"), TraceEvent(1.0, 1.0, "y")], 21)
        assert span == pytest.approx(2.0)
        assert column(0.0) == 0
        assert column(2.0) == 20

    def test_ordering_property_on_real_run(self):
        """On a HIX memcpy, CPU-side copy is charged before in-GPU crypto."""
        from repro.system import Machine, MachineConfig
        machine = Machine(MachineConfig())
        service = machine.boot_hix()
        app = machine.hix_session(service, "traced").cuCtxCreate()
        buf = app.cuMemAlloc(4096)
        tracer = SpanTracer()
        tracer.attach(machine.clock)
        app.cuMemcpyHtoD(buf, b"\x11" * 4096)
        tracer.detach()
        copy = tracer.find("copy_h2d")
        crypto = tracer.find("crypto_gpu")
        assert copy is not None and crypto is not None
