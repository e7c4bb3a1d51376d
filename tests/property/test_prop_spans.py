"""Span pins for every traced layer boundary.

``golden/traced_spans.json`` records, for every span of a traced
capture, its ``(name, category, sorted attrs, start, end)``: the
sealed-RPC API on both backends (boot, session, every ``cu*`` entry
point including the batch forms and a second no-op ``cuCtxDestroy``)
and ``run_single`` of a small matrix-add on gdev, hix and gpucc, which
reaches the ``gdev.*``, ``pcie.route``, ``dma.*``, ``iommu``/``mmu``,
``aead.*`` and ``sgx.*`` spans.  ``gpucc_premerge.json`` pins only
``(name, category)`` of one session; this file pins the attributes and
virtual times too, so moving how a span is opened cannot change what
it records.  Regenerate (only on a deliberate change to spans or
simulated time) with ``python tests/property/test_prop_spans.py``.

A re-fork guard keeps span opening in one place: outside
``obs/tracer.py`` no module opens ``tracer.span(`` or guards on
``tracer is None``; entry points carry ``@traced`` instead.
"""

import json
import pathlib
import re
import sys

import pytest

from repro import obs
from repro.evalkit.harness import run_single
from repro.gpu.module import DevPtr
from repro.system import Machine, MachineConfig
from repro.workloads import MatrixAdd

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "traced_spans.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

BACKENDS = ("hix", "gpucc")
MODES = ("gdev", "hix", "gpucc")
SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _rows(tracer):
    return [[span.name, span.category, sorted(span.attrs.items()),
             span.start, span.end] for span in tracer.spans()]


def _api_capture(backend):
    """Every traced ``cu*`` entry point of one session, boot included."""
    machine = Machine(MachineConfig(backend=backend))
    tracer = obs.enable(machine.clock)
    try:
        service = machine.boot_secure()
        api = machine.secure_session(service, name="traced")
        api.cuCtxCreate()
        dptr = api.cuMemAlloc(8192)
        api.cuMemcpyHtoD(dptr, bytes(range(256)) * 16)
        second = DevPtr(dptr.addr + 4096)
        api.cuMemcpyHtoDBatch([(dptr, b"\x01" * 512),
                               (second, b"\x02" * 1024)])
        api.cuMemcpyDtoHBatch([(dptr, 512), (second, 1024)])
        module = api.cuModuleLoad(["builtin.vector_scale"])
        api.cuLaunchKernel(module, "builtin.vector_scale", [dptr, 1024, 3])
        api.cuLaunchKernelBatch(
            module, [("builtin.vector_scale", [dptr, 1024, 2], 0.0)])
        api.cuMemcpyDtoH(dptr, 4096)
        api.cuCtxDestroy()
        api.cuCtxDestroy()
    finally:
        obs.disable()
        tracer.detach()
    return _rows(tracer)


def _run_single_capture(mode):
    """``run_single`` of a small matrix-add, traced end to end."""
    machine = Machine(MachineConfig(data_inflation=1.0))
    tracer = obs.enable(machine.clock)
    try:
        run_single(MatrixAdd(64), mode, 1.0, machine=machine)
    finally:
        obs.disable()
        tracer.detach()
    return _rows(tracer)


def _normalise(rows):
    """JSON round trip: attr pairs and tuples become lists."""
    return json.loads(json.dumps(rows))


def capture():
    """Everything ``traced_spans.json`` pins, recomputed."""
    return {
        "api": {backend: _api_capture(backend) for backend in BACKENDS},
        "run_single:matrix-add-64:1.0": {
            mode: _run_single_capture(mode) for mode in MODES},
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_api_spans(backend):
    assert _normalise(_api_capture(backend)) == GOLDEN["api"][backend]


@pytest.mark.parametrize("mode", MODES)
def test_run_single_spans(mode):
    assert _normalise(_run_single_capture(mode)) == \
        GOLDEN["run_single:matrix-add-64:1.0"][mode]


def test_golden_reaches_every_layer():
    """The capture really crosses each traced boundary."""
    categories = {row[1] for rows in GOLDEN["run_single:matrix-add-64:1.0"]
                  .values() for row in rows}
    assert {"gdev", "pcie", "dma", "iommu", "mmu", "aead", "sgx",
            "hix", "gpucc"} <= categories
    names = {row[0] for row in GOLDEN["api"]["gpucc"]}
    assert {"gpucc.cuMemcpyHtoDBatch", "gpucc.cuMemcpyDtoHBatch",
            "gpucc.cuLaunchKernelBatch", "gpucc.cuCtxDestroy"} <= names


_HAND_SPAN = re.compile(r"tracer\.span\(|tracer is None")


def test_no_hand_written_span_guards():
    """Spans open through ``obs.tracer.traced`` (or ``obs.span``) only;
    instant ``tracer.event(...)`` calls stay allowed."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "obs" / "tracer.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _HAND_SPAN.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}")
    assert offenders == []


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
