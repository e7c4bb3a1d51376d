"""Unit tests for the evaluation harness internals."""

import ast
import inspect
import pathlib

import pytest

from repro.backends import base as backend_base
from repro.backends.base import TeeBackend, register
from repro.core.multiuser import simulate_concurrent
from repro.evalkit.harness import (
    GDEV,
    HIX,
    _CountingApi,
    per_launch_overhead,
    run_multiuser,
    user_segments,
)
from repro.sim.costs import GB, US, CostModel
from repro.sim.pipeline import pipelined_time
from repro.workloads.base import Phase, Workload

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


class _StubApi:
    def __init__(self):
        self.calls = []

    def cuLaunchKernel(self, module, name, params, compute_seconds=0.0):
        self.calls.append((name, compute_seconds))

    def cuMemAlloc(self, nbytes):
        return nbytes


class _StubWorkload(Workload):
    app_code = "STUB"
    name = "stub"
    modeled_h2d = 64 << 20
    modeled_d2h = 16 << 20
    n_launches = 10
    compute_seconds = 0.05

    def run(self, api, inflation=1.0):
        api.cuLaunchKernel(None, "k", [], compute_seconds=0.01)


class TestCountingApi:
    def test_counts_launches_and_hints(self):
        stub = _StubApi()
        counting = _CountingApi(stub)
        counting.cuLaunchKernel(None, "a", [], compute_seconds=0.25)
        counting.cuLaunchKernel(None, "b", [])
        assert counting.launches == 2
        assert counting.hinted_seconds == pytest.approx(0.25)
        assert [c[0] for c in stub.calls] == ["a", "b"]

    def test_forwards_other_methods(self):
        counting = _CountingApi(_StubApi())
        assert counting.cuMemAlloc(42) == 42


class TestPerLaunchOverhead:
    def test_hix_launch_cheaper(self):
        costs = CostModel()
        assert (per_launch_overhead(costs, HIX)
                < per_launch_overhead(costs, GDEV))

    def test_scales_with_launch_cost(self):
        base = CostModel()
        slow = base.with_overrides(kernel_launch_gdev=1e-3)
        assert (per_launch_overhead(slow, GDEV)
                > per_launch_overhead(base, GDEV))


class TestUserSegments:
    def test_gdev_has_no_crypto_segments(self):
        segments = user_segments(_StubWorkload(), CostModel(), GDEV)
        assert not [s for s in segments if s.label == "crypto"]

    def test_hix_has_crypto_segments_both_directions(self):
        segments = user_segments(_StubWorkload(), CostModel(), HIX)
        crypto = [s for s in segments if s.label == "crypto"]
        assert len(crypto) >= 2
        assert all(s.kind == "gpu" for s in crypto)

    def test_total_compute_preserved(self):
        workload = _StubWorkload()
        for mode in (GDEV, HIX):
            segments = user_segments(workload, CostModel(), mode)
            kernel_time = sum(s.duration for s in segments
                              if s.label == "kernel")
            assert kernel_time == pytest.approx(workload.compute_seconds)

    def test_hix_single_user_slower(self):
        workload = _StubWorkload()
        costs = CostModel()
        assert (run_multiuser(workload, HIX, 1, costs)
                > run_multiuser(workload, GDEV, 1, costs))


class _ProbeBackend(TeeBackend):
    """A third backend whose every cost hook is distinctive: a 4-stage
    pipeline, its own crypto rate and derate, its own launch cost."""

    name = "probe-tee"

    def launch_overhead(self, costs):
        return 123 * US

    def multiuser_efficiency(self, costs):
        return 0.25

    def session_setup(self, costs):
        return 1.5e-3, 2.5e-3

    def device_crypto(self, costs):
        return 11 * US, 3.0 * GB

    def h2d_stages(self, costs):
        return (1.0 * GB, 2.0 * GB, 4.0 * GB, 0.5 * GB), (0.0,) * 4

    def d2h_stages(self, costs):
        return (0.75 * GB, 4.0 * GB, 2.0 * GB, 1.0 * GB), (0.0,) * 4


@pytest.fixture
def probe():
    backend = register(_ProbeBackend())
    try:
        yield backend
    finally:
        backend_base._REGISTRY.pop(backend.name)


class TestNewBackendIsOneClass:
    """The analytic model reads every sealed-mode cost from the
    backend's hooks, so a new backend needs no CostModel or harness
    edit."""

    def test_launch_overhead_follows_hook(self, probe):
        assert per_launch_overhead(CostModel(), probe.name) == 123 * US

    def test_segments_follow_hooks(self, probe):
        workload, costs = _StubWorkload(), CostModel()
        segments = user_segments(workload, costs, probe.name)
        by_label = {}
        for segment in segments:
            by_label.setdefault(segment.label, []).append(segment)
        assert [s.duration for s in by_label["init"]] == [1.5e-3 + 2.5e-3]
        chunk = costs.pipeline_chunk_bytes
        assert [s.duration for s in by_label["h2d"]] == [pipelined_time(
            workload.modeled_h2d, probe.h2d_stages(costs)[0], chunk)]
        assert [s.duration for s in by_label["d2h"]] == [pipelined_time(
            workload.modeled_d2h, probe.d2h_stages(costs)[0], chunk)]
        # 16 upload + 4 download chunks, each one device-crypto pass at
        # the derated bandwidth.
        expected_crypto = (20 * 11 * US + (workload.modeled_h2d
                                           + workload.modeled_d2h)
                           / (3.0 * GB * 0.25))
        assert sum(s.duration for s in by_label["crypto"]) == \
            pytest.approx(expected_crypto, rel=1e-12)
        assert all(s.kind == "gpu" for s in by_label["crypto"])
        assert sum(s.duration for s in by_label["launch"]) == \
            pytest.approx(workload.n_launches * 123 * US, rel=1e-12)

    def test_multiuser_follows_hooks(self, probe):
        workload, costs = _StubWorkload(), CostModel()
        segments = user_segments(workload, costs, probe.name)
        assert run_multiuser(workload, probe.name, 1, costs) == \
            pytest.approx(sum(s.duration for s in segments), rel=1e-12)
        assert run_multiuser(workload, probe.name, 2, costs) == \
            simulate_concurrent([segments] * 2, costs.gpu_context_switch)[0]
        assert run_multiuser(workload, probe.name, 1, costs) != \
            run_multiuser(workload, HIX, 1, costs)


class TestNoCostReFork:
    """Per-backend cost formulas stay on TeeBackend."""

    def test_cost_model_methods_take_no_mode(self):
        offenders = [
            name for name, member in vars(CostModel).items()
            if callable(member) and {"mode", "backend"}
            & set(inspect.signature(member).parameters)]
        assert offenders == []

    @pytest.mark.parametrize("relpath", [
        "evalkit/harness.py", "serve/jobs.py", "evalkit/serve_sweep.py"])
    def test_no_backend_name_comparisons(self, relpath):
        banned_names = {"HIX", "GPUCC"}
        banned_strings = {"hix", "gpucc"}
        offenders = []
        tree = ast.parse((SRC / relpath).read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            for operand in [node.left, *node.comparators]:
                if (isinstance(operand, ast.Name)
                        and operand.id in banned_names) or (
                        isinstance(operand, ast.Constant)
                        and operand.value in banned_strings):
                    offenders.append(node.lineno)
        assert offenders == []


class TestWorkloadBase:
    def test_default_phases(self):
        phases = _StubWorkload().phases()
        assert [p.kind for p in phases] == ["h2d", "compute", "d2h"]
        assert phases[1].launches == 10

    def test_per_launch_seconds(self):
        assert _StubWorkload().per_launch_seconds() == pytest.approx(0.005)

    def test_scaled_dims(self):
        workload = _StubWorkload()
        assert workload.scaled_dim(1024, 16.0) == 256   # sqrt scaling
        assert workload.scaled_elems(1024, 16.0) == 64  # linear scaling
        assert workload.scaled_dim(4, 1e9) == 4         # floor

    def test_check_raises_workload_error(self):
        from repro.workloads.base import WorkloadError
        with pytest.raises(WorkloadError):
            _StubWorkload().check(False, "boom")

    def test_check_close_reports_magnitude(self):
        import numpy as np
        from repro.workloads.base import WorkloadError
        with pytest.raises(WorkloadError, match="max abs err"):
            _StubWorkload().check_close(np.ones(4), np.zeros(4), "x")

    def test_phase_validation(self):
        phase = Phase("h2d", nbytes=10)
        assert phase.kind == "h2d"
