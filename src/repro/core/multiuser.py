"""Concurrent multi-user execution model (paper Section 4.5, Figures 8-9).

Pre-Volta GPUs execute one context at a time; when several user enclaves
share the GPU, their command streams interleave through context
switches, and under HIX every data transfer adds in-GPU cryptography
kernels to the stream — "the overheads from the cryptography kernel
execution itself, increased context switches, and resource
underutilization for small data cryptography" (Section 5.4).

The model is a small discrete-event simulation: each user is a sequence
of :class:`Segment`\\ s — ``host`` work (CPU/crypto/transfer prep that
overlaps freely across users) and ``gpu`` work (serialized on the single
GPU engine, FIFO-arbitrated, paying a context-switch cost whenever the
engine changes owner).  The evaluation harness converts a workload's
phase profile into segments via the cost model and reads off makespans.

The model runs on the shared discrete-event kernel
(:mod:`repro.sim.engine`): each user becomes a kernel lane of
single-segment work units (:func:`segments_to_units`) and the GPU is the
kernel's exclusive :class:`~repro.sim.engine.Resource` under native FIFO
arbitration; per-user results are the kernel's own
:class:`~repro.sim.engine.LaneTimeline`\\ s.  The pre-kernel heapq
implementation lives on as the reference oracle in
``tests/property/oracles.py``, and the property suite pins the kernel
to it exactly — makespan, per-user timelines, and stats — on arbitrary
tie-heavy inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.sim.engine import LaneTimeline, TenantLane, WorkUnit, run_lanes


@dataclass(frozen=True)
class Segment:
    """One phase of a user's execution."""

    kind: str        # "host" or "gpu"
    duration: float  # seconds
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("host", "gpu"):
            raise ValueError(f"segment kind must be host|gpu, got {self.kind!r}")
        if self.duration < 0:
            raise ValueError("segment duration must be non-negative")


def segments_to_units(segments: Sequence[Segment]) -> List[WorkUnit]:
    """One kernel work unit per segment (no merging, exact ordering)."""
    return [WorkUnit(seg.duration, None, seg.label) if seg.kind == "host"
            else WorkUnit(0.0, seg.duration, seg.label)
            for seg in segments]


def simulate_concurrent(users: Sequence[Sequence[Segment]],
                        ctx_switch_cost: float
                        ) -> Tuple[float, List[LaneTimeline], Dict[str, float]]:
    """Simulate *users* sharing one GPU; returns (makespan, per-user, stats).

    Host segments of different users overlap fully (each user has a CPU
    core — the testbed is 4C/8T for at most 4 users).  GPU segments
    queue FIFO on the engine; a context switch is charged whenever the
    engine's resident context changes (including the first occupancy of
    a previously-used engine, matching Fermi's save/restore behaviour
    between non-empty contexts).

    Executes on the shared kernel (:func:`repro.sim.engine.run_lanes`)
    with one single-segment lane per user and the kernel's native FIFO
    arbitration; results are pinned exactly — ties included — to the
    retired heapq oracle by the property suite.
    """
    lanes = [TenantLane(units=segments_to_units(segments), max_inflight=1)
             for segments in users]
    result = run_lanes(lanes, None, ctx_switch_cost)
    return result.makespan, result.timelines, result.stats()


def interleave_copies(total_bytes: float, chunk: float, host_rate: float,
                      gpu_rate: float, gpu_kernel_latency: float
                      ) -> List[Segment]:
    """Helper: chunked secure copy as alternating host/gpu segments.

    Models the multi-user behaviour where each chunk's CPU-side sealing
    and transfer is host work but its in-GPU crypto kernel occupies the
    engine — forcing interleaving (and context switches) with other
    users' kernels, the effect Section 5.4 blames for the multi-user
    overhead.
    """
    segments: List[Segment] = []
    remaining = total_bytes
    while remaining > 0:
        this_chunk = min(chunk, remaining)
        segments.append(Segment("host", this_chunk / host_rate, "seal+xfer"))
        segments.append(Segment("gpu", gpu_kernel_latency
                                + this_chunk / gpu_rate, "crypto-kernel"))
        remaining -= this_chunk
    return segments
