"""Profile exporters: Chrome trace-event JSON, JSONL spans, metrics.

The Chrome trace-event format (the JSON object form, ``{"traceEvents":
[...]}``) loads directly in Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``.  Track layout:

* ``pid 1`` — *tenant lanes*: the virtual-time schedule, one thread
  per tenant lane (spans carrying both ``tenant`` and ``lane`` attrs —
  what :func:`repro.sim.engine.run_lanes` emits).  These tracks
  reproduce the interleaving :func:`repro.sim.trace.render_lanes` draws
  in ASCII.
* ``pid 2`` — *hardware resources*: one thread per span category (mmu,
  pcie, dma, aead, sgx, engine, clock-charge categories, ...) for spans
  with no tenant attribute.
* ``pid 3`` — *tenant production*: per-tenant request-lifecycle spans
  measured at production time (``tenant`` attr without ``lane``).

Every span serializes its exact float bounds and attributes into
``args``, along with a stable ``id``/``parent`` pair, so
:func:`chrome_to_spans` reimports an exported profile as the identical
span forest (``ts``/``dur`` microseconds are for the viewer only).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span

__all__ = [
    "lane_spans", "chrome_trace", "chrome_to_spans",
    "spans_to_jsonl", "spans_from_jsonl",
    "write_chrome", "write_jsonl", "write_metrics",
]

TENANT_LANES_PID = 1
HARDWARE_PID = 2
PRODUCTION_PID = 3

_PROCESS_NAMES = {
    TENANT_LANES_PID: "tenant lanes (virtual schedule)",
    HARDWARE_PID: "hardware resources",
    PRODUCTION_PID: "tenant production",
}


def lane_spans(lanes: Dict[str, Sequence]) -> List[Span]:
    """Lift ``render_lanes``-style lanes into tenant-attributed spans.

    *lanes* maps lane name -> iterable of trace events (anything with
    ``start``/``duration``/``category``, i.e.
    :class:`repro.sim.trace.TraceEvent`).  The resulting spans carry
    ``tenant`` and ``lane`` attributes so :func:`chrome_trace` places
    them on per-tenant schedule tracks.
    """
    spans: List[Span] = []
    for name, events in lanes.items():
        for event in events:
            spans.append(Span(event.category, event.category,
                              start=event.start,
                              end=event.start + event.duration,
                              attrs={"tenant": name, "lane": True}))
    return spans


def _flatten(roots: Iterable[Span]) -> List[Span]:
    flat: List[Span] = []
    for root in roots:
        flat.extend(root.walk())
    return flat


def _track(span: Span) -> tuple:
    """(pid, track-key) for one span."""
    tenant = span.attr("tenant")
    if tenant is None:
        return HARDWARE_PID, span.category
    if span.attr("lane") is not None:
        return TENANT_LANES_PID, str(tenant)
    return PRODUCTION_PID, str(tenant)


def chrome_trace(spans: Iterable[Span],
                 metrics: Optional[MetricsRegistry] = None) -> Dict:
    """Build a Chrome trace-event JSON object from a span forest.

    *spans* are root spans (children are walked).  Pass completed lanes
    through :func:`lane_spans` first to get per-tenant schedule tracks.
    A metrics registry snapshot, when given, rides along under the
    top-level ``metrics`` key (ignored by viewers, kept by reimport
    tooling).
    """
    flat = _flatten(spans)
    ids = {id(span): index for index, span in enumerate(flat)}
    tracks: Dict[tuple, int] = {}
    events: List[Dict] = []
    thread_meta: List[Dict] = []
    for span in flat:
        pid, key = _track(span)
        tid = tracks.get((pid, key))
        if tid is None:
            tid = len([1 for (p, _k) in tracks if p == pid])
            tracks[(pid, key)] = tid
            thread_meta.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": str(key)},
            })
        parent = ids.get(id(span.parent)) if span.parent is not None else None
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {
                "id": ids[id(span)],
                "parent": parent,
                "start_s": span.start,
                "end_s": span.end,
                "wall_s": span.wall_seconds,
                "attrs": dict(span.attrs),
            },
        })
    process_meta = [
        {"ph": "M", "name": "process_name", "pid": pid,
         "args": {"name": name}}
        for pid, name in _PROCESS_NAMES.items()
        if any(p == pid for p, _k in tracks)
    ]
    payload: Dict = {
        "traceEvents": process_meta + thread_meta + events,
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        payload["metrics"] = metrics.snapshot()
    return payload


def chrome_to_spans(payload: Dict) -> List[Span]:
    """Rebuild the span forest from :func:`chrome_trace` output.

    Returns the root spans; the exact virtual-time bounds and attributes
    come from the ``args`` side-channel, so the round trip is lossless.
    """
    records = [event for event in payload.get("traceEvents", [])
               if event.get("ph") == "X"]
    records.sort(key=lambda event: event["args"]["id"])
    spans: Dict[int, Span] = {}
    roots: List[Span] = []
    for record in records:
        args = record["args"]
        span = Span(record["name"], record.get("cat", "span"),
                    start=args["start_s"], end=args["end_s"],
                    attrs=dict(args.get("attrs", {})))
        span.wall_seconds = args.get("wall_s", 0.0)
        spans[args["id"]] = span
        parent_id = args.get("parent")
        if parent_id is None:
            roots.append(span)
        else:
            parent = spans[parent_id]
            span.parent = parent
            parent.children.append(span)
    return roots


# -- JSONL ------------------------------------------------------------------


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per span, depth-first, ids linking the tree."""
    flat = _flatten(spans)
    ids = {id(span): index for index, span in enumerate(flat)}
    lines = []
    for span in flat:
        lines.append(json.dumps({
            "id": ids[id(span)],
            "parent": (ids.get(id(span.parent))
                       if span.parent is not None else None),
            "name": span.name,
            "category": span.category,
            "start": span.start,
            "end": span.end,
            "wall_seconds": span.wall_seconds,
            "attrs": dict(span.attrs),
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def spans_from_jsonl(text: str) -> List[Span]:
    """Rebuild root spans from :func:`spans_to_jsonl` output."""
    spans: Dict[int, Span] = {}
    roots: List[Span] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        span = Span(record["name"], record["category"],
                    start=record["start"], end=record["end"],
                    attrs=dict(record.get("attrs", {})))
        span.wall_seconds = record.get("wall_seconds", 0.0)
        spans[record["id"]] = span
        if record.get("parent") is None:
            roots.append(span)
        else:
            parent = spans[record["parent"]]
            span.parent = parent
            parent.children.append(span)
    return roots


# -- file helpers -----------------------------------------------------------


def write_chrome(path, spans: Iterable[Span],
                 metrics: Optional[MetricsRegistry] = None) -> Path:
    """Write a Chrome trace-event JSON profile to *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, metrics=metrics)))
    return path


def write_jsonl(path, spans: Iterable[Span]) -> Path:
    """Write the JSONL span dump to *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(spans_to_jsonl(spans))
    return path


def write_metrics(path, registry: MetricsRegistry) -> Path:
    """Write a JSON metrics snapshot to *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(registry.snapshot(), indent=2,
                               sort_keys=True) + "\n")
    return path
