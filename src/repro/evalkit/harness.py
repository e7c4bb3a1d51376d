"""Workload execution harness: single-user timing and multi-user makespans.

Single-user runs are *functional*: the workload really executes (scaled)
on the chosen stack and the machine's simulated clock provides the
timing, exactly like the prototype measuring wall-clock on the emulated
testbed.  Because functional runs iterate over scaled problem dims, the
harness applies a *launch-count correction*: the modeled launch count of
the full-size problem minus the launches actually issued, charged at the
per-launch cost of the stack under test (plus any residual modeled GPU
compute the issued launches did not carry).

Multi-user runs (Figures 8/9) schedule per-user host/gpu segments with
:func:`repro.core.multiuser.simulate_concurrent` on the shared
discrete-event kernel (:mod:`repro.sim.engine`).  The segments of a
sealed mode come from its :class:`~repro.backends.base.TeeBackend` cost
hooks — session setup, copy pipelines, device crypto and its multi-user
derate, launch cost — so a new backend needs no edit here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backends import get_backend
from repro.backends.base import TeeBackend
from repro.core.multiuser import Segment, simulate_concurrent
from repro.sim.costs import CostModel
from repro.sim.pipeline import pipelined_time
from repro.system import Machine, MachineConfig
from repro.workloads.base import Workload

DEFAULT_INFLATION = 256.0

GDEV = "gdev"
HIX = "hix"


@dataclass
class RunResult:
    """Outcome of one single-user workload run."""

    workload: str
    mode: str
    seconds: float
    breakdown: Dict[str, float] = field(default_factory=dict)
    actual_launches: int = 0
    modeled_launches: int = 0
    verified: bool = True

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3


class _CountingApi:
    """Facade proxy that counts launches and their compute hints."""

    def __init__(self, api) -> None:
        self._api = api
        self.launches = 0
        self.hinted_seconds = 0.0

    def cuLaunchKernel(self, module, kernel_name, params,
                       compute_seconds: float = 0.0):
        self.launches += 1
        self.hinted_seconds += compute_seconds
        return self._api.cuLaunchKernel(module, kernel_name, params,
                                        compute_seconds=compute_seconds)

    def __getattr__(self, name):
        return getattr(self._api, name)


def per_launch_overhead(costs: CostModel, mode: str) -> float:
    """Driver-visible cost of one kernel launch, beyond GPU compute.

    The unsecure Gdev baseline's formula, or the sealed backend's
    :meth:`~repro.backends.base.TeeBackend.launch_overhead` — the one
    the serving layer's job builder also charges for elided launches.
    """
    if mode == GDEV:
        return costs.gdev_launch_overhead()
    return get_backend(mode).launch_overhead(costs)


def run_single(workload: Workload, mode: str,
               inflation: float = DEFAULT_INFLATION,
               machine: Optional[Machine] = None) -> RunResult:
    """Run *workload* on a fresh machine; returns simulated-time results."""
    tee = None if mode == GDEV else get_backend(mode)
    if machine is None:
        machine = Machine(MachineConfig(data_inflation=inflation))
    costs = machine.costs
    if tee is None:
        driver = machine.make_gdev()
        api = machine.gdev_session(driver, name=workload.name)
    else:
        service = tee.boot(machine)
        api = tee.create_session(machine, service, name=workload.name)

    counting = _CountingApi(api)
    snap = machine.clock.snapshot()
    api.cuCtxCreate()
    workload.run(counting, inflation)
    # Launch-count correction: the scaled functional run issues fewer
    # launches than the full-size problem would; charge the difference.
    missing_launches = max(workload.n_launches - counting.launches, 0)
    if missing_launches:
        machine.clock.advance(
            missing_launches * per_launch_overhead(costs, mode), "launch")
    residual_compute = max(
        workload.compute_seconds - counting.hinted_seconds, 0.0)
    if residual_compute > 0.0:
        machine.clock.advance(residual_compute, "gpu_compute")
    elapsed = machine.clock.elapsed_since(snap)
    api.cuCtxDestroy()
    return RunResult(
        workload=workload.name,
        mode=mode,
        seconds=elapsed.total,
        breakdown=dict(elapsed.by_category),
        actual_launches=counting.launches,
        modeled_launches=workload.n_launches,
    )


# ---------------------------------------------------------------------------
# Multi-user (Figures 8/9)
# ---------------------------------------------------------------------------

def _compute_segments(workload: Workload, costs: CostModel, mode: str,
                      max_segments: int = 48) -> List[Segment]:
    """The compute phase as interleavable gpu segments + launch gaps."""
    launches = max(workload.n_launches, 1)
    groups = min(launches, max_segments)
    per_group_compute = workload.compute_seconds / groups
    per_group_overhead = (launches / groups) * per_launch_overhead(costs, mode)
    segments: List[Segment] = []
    for _ in range(groups):
        segments.append(Segment("host", per_group_overhead, "launch"))
        segments.append(Segment("gpu", per_group_compute, "kernel"))
    return segments


def _crypto_kernel_segments(nbytes: float, costs: CostModel,
                            tee: TeeBackend,
                            max_segments: int = 24) -> List[Segment]:
    """Device-side crypto for a bulk transfer, chunk by chunk.

    Each chunk pays the backend's per-pass latency, and its bandwidth is
    derated by the backend's :meth:`~TeeBackend.multiuser_efficiency`:
    HIX's SM-resident AEAD kernels run per-chunk batches too small to
    fill the SMs when several contexts interleave (Section 5.4), while
    GPU-CC's on-die engine loses less.
    """
    if nbytes <= 0:
        return []
    chunk = costs.pipeline_chunk_bytes
    chunks = max(int(-(-nbytes // chunk)), 1)
    groups = min(chunks, max_segments)
    per_group_bytes = nbytes / groups
    per_chunk_latency, bandwidth = tee.device_crypto(costs)
    bandwidth = bandwidth * tee.multiuser_efficiency(costs)
    segments = []
    for _ in range(groups):
        segments.append(Segment(
            "gpu",
            (chunks / groups) * per_chunk_latency
            + per_group_bytes / bandwidth,
            "crypto"))
    return segments


def user_segments(workload: Workload, costs: CostModel,
                  mode: str) -> List[Segment]:
    """One user's full execution as host/gpu segments."""
    h2d = float(workload.modeled_h2d)
    d2h = float(workload.modeled_d2h)
    segments: List[Segment] = []
    if mode == GDEV:
        segments.append(Segment("host", costs.gdev_task_init, "init"))
        segments.append(Segment("host", costs.h2d_time(0) + h2d
                                / costs.pcie_h2d_bandwidth, "h2d"))
        segments.extend(_compute_segments(workload, costs, mode))
        segments.append(Segment("host", costs.d2h_time(0) + d2h
                                / costs.pcie_d2h_bandwidth, "d2h"))
        return segments
    # A sealed backend: its own copy pipelines (stage latencies are
    # setup, left out of the model) and device-side crypto.
    tee = get_backend(mode)
    chunk = costs.pipeline_chunk_bytes
    segments.append(Segment("host", sum(tee.session_setup(costs)), "init"))
    segments.append(Segment("host", pipelined_time(
        h2d, tee.h2d_stages(costs)[0], chunk), "h2d"))
    segments.extend(_crypto_kernel_segments(h2d, costs, tee))
    segments.extend(_compute_segments(workload, costs, mode))
    segments.extend(_crypto_kernel_segments(d2h, costs, tee))
    segments.append(Segment("host", pipelined_time(
        d2h, tee.d2h_stages(costs)[0], chunk), "d2h"))
    return segments


def run_multiuser(workload: Workload, mode: str, num_users: int,
                  costs: Optional[CostModel] = None) -> float:
    """Makespan of *num_users* identical instances sharing the GPU."""
    costs = costs or CostModel()
    users = [user_segments(workload, costs, mode) for _ in range(num_users)]
    makespan, _timelines, _stats = simulate_concurrent(
        users, costs.gpu_context_switch)
    return makespan


def single_user_model_time(workload: Workload, mode: str,
                           costs: Optional[CostModel] = None) -> float:
    """Analytic single-user time (the 1-user baseline of Figures 8/9)."""
    return run_multiuser(workload, mode, 1, costs)
