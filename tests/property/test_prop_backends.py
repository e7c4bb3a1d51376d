"""Backend-refactor invariants.

The PR that extracted :mod:`repro.backends` out of the HIX stack came
with a promise: the HIX backend behind the new seam is *bit-identical*
to the pre-refactor code.  ``golden/hix_prerefactor.json`` was captured
on the commit before the refactor landed; these tests replay the exact
capture recipe and compare with ``==`` on every float — any drift in
simulated time, per-request charges, or attack verdict strings is a
behavioral regression, not noise.

``golden/gpucc_premerge.json`` does the same for GPU-CC.  It was
captured on the commit before the GPU-CC client and service were folded
into the shared sealed-RPC stack, and it also pins, for both backends,
every chaos campaign's three-sided verdict and makespans and the span
and audit-kind sequences of one traced session.  A re-fork guard checks
that no backend class redefines the shared sealed-RPC surface.

The rest of the file pins the seam itself: the request-timing memo's
session-config token must change when the backend changes (a GPU-CC
request charges differently from an HIX one, so memo entries must not
survive a backend switch), and the two backends must disagree where
the designs disagree (timing) while agreeing on the contract surface.
"""

import json
import pathlib
import sys

import pytest

from repro import obs
from repro.backends import backend_names, get_backend
from repro.backends.gpucc import GpuCcApi, GpuCcService
from repro.chaos.campaign import campaign_catalog, run_campaign
from repro.core.gpu_enclave import GpuEnclaveService
from repro.core.runtime import HixApi
from repro.evalkit.harness import run_single
from repro.evalkit.security import run_attack_matrix
from repro.evalkit.serve_sweep import SWEEP_QUOTA
from repro.obs.audit import audit_log
from repro.serve import ServeEngine
from repro.serve.jobs import submit_workload
from repro.system import Machine, MachineConfig
from repro.workloads import MatrixAdd

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "hix_prerefactor.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
#: The GPU-CC counterpart of ``hix_prerefactor.json``, plus chaos and
#: trace pins for both backends, captured before the two sealed-RPC
#: stacks were merged into one.  Regenerate (only on a deliberate
#: simulated-time change) with ``python tests/property/test_prop_backends.py``.
PREMERGE_PATH = GOLDEN_DIR / "gpucc_premerge.json"
PREMERGE = json.loads(PREMERGE_PATH.read_text())

BACKENDS = ("hix", "gpucc")


def _serve_capture(backend):
    """The exact serve recipe the golden files were captured with."""
    machine = Machine(MachineConfig(data_inflation=4096.0, backend=backend))
    engine = ServeEngine(machine, scheduler="fair", max_tenants=2,
                         default_quota=SWEEP_QUOTA, fast_path=True)
    workload = MatrixAdd(2048)
    for index in range(2):
        client = engine.add_tenant(f"user{index}")
        submit_workload(client, workload, 4096.0, machine.costs,
                        seed=index)
    report = engine.run()
    return {
        "makespan": report.makespan,
        "context_switches": report.context_switches,
        "gpu_utilization": report.gpu_utilization,
        "tenants": [{"name": tenant.name,
                     "finish_time": tenant.finish_time,
                     "gpu_busy": tenant.gpu_busy,
                     "host_busy": tenant.host_busy,
                     "served": tenant.served}
                    for tenant in report.tenants],
        "requests": [[[request.label, request.outcome,
                       request.host_seconds, request.gpu_seconds]
                      for request in client.requests]
                     for client in engine.clients],
    }


def _run_single_capture(backend):
    result = run_single(MatrixAdd(2048), backend, 256.0)
    return {"seconds": result.seconds,
            "breakdown": dict(sorted(result.breakdown.items()))}


def _attack_capture(backend):
    return [{"attack_id": r.attack_id, "name": r.name,
             "baseline": r.baseline, "hix": r.hix,
             "defended": r.defended} for r in run_attack_matrix(backend)]


def _campaign_capture(backend):
    """Three-sided verdict and both makespans of every campaign, seed 0."""
    captured = {}
    for name in sorted(campaign_catalog()):
        result = run_campaign(name, seed=0, backend=backend)
        captured[name] = {"security": result.security_ok,
                          "fairness": result.fairness_ok,
                          "detection": result.detection_ok,
                          "baseline_makespan": result.baseline.makespan,
                          "chaos_makespan": result.chaos.makespan}
    return captured


def _traced_session_capture(backend):
    """Span (name, category) and audit-kind sequences of one session:
    create, alloc, upload, module load, launch, download, destroy."""
    machine = Machine(MachineConfig(backend=backend))
    service = machine.boot_secure()
    api = machine.secure_session(service, name="traced")
    log = audit_log()
    mark = log.cursor()
    tracer = obs.enable(machine.clock)
    try:
        api.cuCtxCreate()
        dptr = api.cuMemAlloc(4096)
        api.cuMemcpyHtoD(dptr, bytes(range(256)) * 16)
        module = api.cuModuleLoad(["builtin.vector_scale"])
        api.cuLaunchKernel(module, "builtin.vector_scale", [dptr, 1024, 3])
        api.cuMemcpyDtoH(dptr, 4096)
        api.cuCtxDestroy()
    finally:
        obs.disable()
        tracer.detach()
    return {"spans": [[span.name, span.category]
                      for span in tracer.spans()],
            "audit": [event.kind for event in log.events_since(mark)]}


def capture_premerge():
    """Everything ``gpucc_premerge.json`` pins, recomputed."""
    return {
        "run_single:matrix-add-2048:256.0": _run_single_capture("gpucc"),
        "serve:matrix-add-2048:4096:2u": _serve_capture("gpucc"),
        "attack_matrix": _attack_capture("gpucc"),
        "campaigns:seed0": {backend: _campaign_capture(backend)
                            for backend in BACKENDS},
        "traced_session": {backend: _traced_session_capture(backend)
                           for backend in BACKENDS},
    }


class TestHixBitIdenticalToPreRefactor:
    def test_run_single_timing(self):
        golden = GOLDEN["run_single:matrix-add-2048:256.0"]
        result = run_single(MatrixAdd(2048), "hix", 256.0)
        assert result.seconds == golden["seconds"]
        assert dict(sorted(result.breakdown.items())) == \
            golden["breakdown"]

    def test_serve_report_and_per_request_charges(self):
        golden = GOLDEN["serve:matrix-add-2048:4096:2u"]
        capture = _serve_capture("hix")
        assert capture["makespan"] == golden["makespan"]
        assert capture["context_switches"] == golden["context_switches"]
        assert capture["gpu_utilization"] == golden["gpu_utilization"]
        assert capture["tenants"] == golden["tenants"]
        assert capture["requests"] == golden["requests"]

    def test_attack_matrix_verdict_strings(self):
        golden = GOLDEN["attack_matrix"]
        results = run_attack_matrix("hix")
        captured = [{"attack_id": r.attack_id, "name": r.name,
                     "baseline": r.baseline, "hix": r.hix,
                     "defended": r.defended} for r in results]
        assert captured == golden


class TestMemoBackendInvalidation:
    def _engine(self, backend):
        machine = Machine(MachineConfig(data_inflation=64.0,
                                        backend=backend))
        return ServeEngine(machine, max_tenants=1,
                           default_quota=SWEEP_QUOTA)

    def test_memo_token_differs_by_backend(self):
        tokens = {backend: self._engine(backend)._memo_token(1.0)
                  for backend in backend_names()}
        assert len(set(tokens.values())) == len(tokens), tokens
        for backend, token in tokens.items():
            assert token[0] == backend

    def test_backend_switch_invalidates_timing_memo(self):
        """Entries cached under one backend must not survive a
        reconfigure to another backend's token."""
        hix = self._engine("hix")
        memo = hix.memo
        memo.configure(hix._memo_token(1.0))
        memo.put(("shape", 1), 1.0e-3, 2.0e-3)
        assert memo.get(("shape", 1)) is not None
        gpucc = self._engine("gpucc")
        memo.configure(gpucc._memo_token(1.0))
        assert memo.get(("shape", 1)) is None

    def test_same_backend_reconfigure_keeps_entries(self):
        engine = self._engine("hix")
        memo = engine.memo
        token = engine._memo_token(1.0)
        memo.configure(token)
        memo.put(("shape", 2), 1.0e-3, 2.0e-3)
        memo.configure(token)
        assert memo.get(("shape", 2)) is not None


class TestBackendContractSurface:
    def test_both_backends_registered(self):
        assert set(backend_names()) >= {"hix", "gpucc"}

    def test_backends_disagree_on_timing(self):
        """The designs genuinely differ; identical timing would mean
        the GPU-CC path silently fell through to HIX."""
        hix = run_single(MatrixAdd(2048), "hix", 256.0)
        gpucc = run_single(MatrixAdd(2048), "gpucc", 256.0)
        assert hix.seconds != gpucc.seconds
        assert "session_setup" in hix.breakdown

    def test_machine_dispatches_by_config(self):
        for backend in ("hix", "gpucc"):
            machine = Machine(MachineConfig(backend=backend))
            assert machine.backend is get_backend(backend)
            service = machine.boot_secure()
            api = machine.secure_session(service, name="probe")
            api.cuCtxCreate()
            handle = api.cuMemAlloc(4096)
            api.cuMemcpyHtoD(handle, b"x" * 4096)
            assert api.cuMemcpyDtoH(handle, 4096)[:4096] == b"x" * 4096
            api.cuCtxDestroy()


class TestGpuCcBitIdenticalToPreMerge:
    """``gpucc_premerge.json`` replayed with ``==`` on every value."""

    def test_run_single_timing(self):
        assert _run_single_capture("gpucc") == \
            PREMERGE["run_single:matrix-add-2048:256.0"]

    def test_serve_report_and_per_request_charges(self):
        golden = PREMERGE["serve:matrix-add-2048:4096:2u"]
        capture = _serve_capture("gpucc")
        assert capture["makespan"] == golden["makespan"]
        assert capture["context_switches"] == golden["context_switches"]
        assert capture["gpu_utilization"] == golden["gpu_utilization"]
        assert capture["tenants"] == golden["tenants"]
        assert capture["requests"] == golden["requests"]

    def test_attack_matrix_verdict_strings(self):
        assert _attack_capture("gpucc") == PREMERGE["attack_matrix"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_campaign_verdicts_and_makespans(self, backend):
        assert _campaign_capture(backend) == \
            PREMERGE["campaigns:seed0"][backend]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_traced_session_spans_and_audit_kinds(self, backend):
        assert _traced_session_capture(backend) == \
            PREMERGE["traced_session"][backend]


def _is_shared_surface(name):
    """Client or service members the sealed-RPC base classes own."""
    bare = name.lstrip("_")
    return (bare.startswith(("cu", "memcpy"))
            or "batch" in name.lower()
            or name.endswith("_uncharged")
            or name in {"_request", "_dispatch", "poll", "open_channel",
                        "_close_session", "_scalar_htod_bytes"})


class TestNoReFork:
    """A backend supplies hooks; it never re-implements the stack."""

    @pytest.mark.parametrize(
        "cls", [HixApi, GpuEnclaveService, GpuCcApi, GpuCcService],
        ids=lambda cls: cls.__name__)
    def test_backend_class_defines_no_shared_surface(self, cls):
        forked = sorted(name for name in vars(cls)
                        if _is_shared_surface(name))
        assert forked == []


if __name__ == "__main__":
    PREMERGE_PATH.write_text(
        json.dumps(capture_premerge(), indent=2) + "\n")
    sys.stdout.write(f"wrote {PREMERGE_PATH}\n")
