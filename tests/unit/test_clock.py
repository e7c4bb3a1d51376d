"""Unit tests for the simulated clock and time accounting."""

import pytest

from repro.sim.clock import SimClock, TimeBreakdown


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5, "a")
        clock.advance(0.5, "b")
        assert clock.now == 2.0

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(3.0) == 3.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_category_accounting(self):
        clock = SimClock()
        clock.advance(1.0, "copy")
        clock.advance(2.0, "copy")
        clock.advance(4.0, "crypto")
        snap = clock.snapshot()
        assert snap.by_category["copy"] == pytest.approx(3.0)
        assert snap.by_category["crypto"] == pytest.approx(4.0)

    def test_snapshot_is_immutable_view(self):
        clock = SimClock()
        clock.advance(1.0, "x")
        snap = clock.snapshot()
        clock.advance(1.0, "x")
        assert snap.total == pytest.approx(1.0)

    def test_elapsed_since(self):
        clock = SimClock()
        clock.advance(1.0, "a")
        snap = clock.snapshot()
        clock.advance(2.0, "a")
        clock.advance(3.0, "b")
        delta = clock.elapsed_since(snap)
        assert delta.total == pytest.approx(5.0)
        assert delta.by_category == {"a": pytest.approx(2.0),
                                     "b": pytest.approx(3.0)}


class TestTimeBreakdown:
    def test_fraction(self):
        breakdown = TimeBreakdown(4.0, {"copy": 1.0, "compute": 3.0})
        assert breakdown.fraction("compute") == pytest.approx(0.75)

    def test_fraction_of_missing_category(self):
        assert TimeBreakdown(4.0, {}).fraction("nope") == 0.0

    def test_fraction_with_zero_total(self):
        assert TimeBreakdown(0.0, {}).fraction("x") == 0.0

    def test_subtraction_drops_zero_entries(self):
        later = TimeBreakdown(3.0, {"a": 2.0, "b": 1.0})
        earlier = TimeBreakdown(2.0, {"a": 2.0})
        delta = later - earlier
        assert "a" not in delta.by_category
        assert delta.by_category["b"] == pytest.approx(1.0)
