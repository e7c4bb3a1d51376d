"""Execution timelines of simulated-time charges.

A :class:`TraceEvent` is one (start, duration, category) charge; the
event kernel emits them per tenant lane and :func:`render_lanes` draws
them as an ASCII timeline.  Recording a clock's charges is the span
tracer's job: :meth:`repro.obs.tracer.SpanTracer.attach` turns every
charge into a leaf span.  The module also holds the machine data-plane
counters (:data:`FASTPATH_GAUGES`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class TraceEvent:
    """One simulated-time charge."""

    start: float
    duration: float
    category: str

    @property
    def end(self) -> float:
        return self.start + self.duration


def _time_axis(events: "List[TraceEvent]", width: int):
    """Axis scaling for the ASCII renderer.

    Returns ``(span_seconds, column)`` where ``column(t)`` maps a
    timestamp to a cell in ``[0, width - 1]``.  A trace whose events all
    occupy one instant (a single zero-duration event, or several at the
    same time) has a genuine zero span: everything maps to column 0 and
    the caller's header reports ``0.000 ms`` instead of an epsilon-
    inflated span.
    """
    t0 = min(e.start for e in events)
    t1 = max(e.end for e in events)
    span = t1 - t0
    if span <= 0.0:
        return 0.0, lambda t: 0
    scale = (width - 1) / span
    return span, lambda t: int((t - t0) * scale)


#: Glyphs for :func:`render_lanes`; unknown categories render as ``*``.
LANE_GLYPHS = {
    "host": ".",
    "gpu": "#",
    "ctx_switch": "x",
}


def render_lanes(lanes: "dict[str, List[TraceEvent]]",
                 width: int = 60) -> str:
    """ASCII timeline with one row per named lane (e.g. per tenant).

    Every lane mixes categories on one row — host work as ``.``, exclusive
    GPU-engine time as ``#``, context switches as ``x`` — so concurrent
    tenants' interleaving on the shared engine is visible at a glance.
    Later-drawn glyphs win inside a cell, with engine time drawn last so
    the serialized resource always shows through.
    """
    all_events = [e for events in lanes.values() for e in events]
    if not all_events:
        return "(empty lanes)"
    span, column = _time_axis(all_events, width)
    label_width = max(len(name) for name in lanes)
    lines = [f"lanes: {span * 1e3:.3f} ms "
             f"(host '.', gpu '#', ctx switch 'x')"]
    draw_order = {"host": 0, "ctx_switch": 1, "gpu": 2}
    for name, events in lanes.items():
        row = [" "] * width
        for event in sorted(events,
                            key=lambda e: draw_order.get(e.category, 0)):
            glyph = LANE_GLYPHS.get(event.category, "*")
            lo = column(event.start)
            hi = column(event.end)
            for index in range(lo, max(hi, lo) + 1):
                row[index] = glyph
        lines.append(f"{name:>{label_width}} |{''.join(row)}|")
    return "\n".join(lines)


#: The machine data-plane counters, as (name, getter) pairs — the
#: source the registry gauges (``fastpath.*``) are built from.
FASTPATH_GAUGES = (
    ("tlb_hits", lambda m: m.mmu.tlb.hits),
    ("tlb_misses", lambda m: m.mmu.tlb.misses),
    ("mmu_range_pages", lambda m: m.mmu.range_pages),
    ("mmu_coalesced_runs", lambda m: m.mmu.coalesced_runs),
    ("iommu_coalesced_runs", lambda m: m.iommu.coalesced_runs),
    ("dma_bytes_read", lambda m: m.dma.bytes_read),
    ("dma_bytes_written", lambda m: m.dma.bytes_written),
    ("phys_zero_copy_bytes", lambda m: m.phys_mem.zero_copy_bytes),
    ("phys_pages_dropped", lambda m: m.phys_mem.pages_dropped),
)


def register_fastpath_gauges(machine, registry=None) -> None:
    """Publish *machine*'s data-plane counters as ``fastpath.*`` gauges.

    Called by :class:`repro.system.Machine` on construction.  Names are
    fixed, so the registry always describes the most recently built
    machine — the sensible default for a process profiling one testbed.
    """
    from repro.obs import metrics as obs_metrics
    registry = registry if registry is not None else obs_metrics.registry()
    for name, getter in FASTPATH_GAUGES:
        registry.gauge_fn(f"fastpath.{name}",
                          (lambda m=machine, g=getter: g(m)))

