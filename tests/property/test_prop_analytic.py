"""Pins for the analytic multi-user model (Figures 8/9).

``golden/analytic_model.json`` records every output of the analytic
path, as ``repr`` of each float so the comparison is exact:

* for each Rodinia workload plus matrix-add/-mul 2048 and matrix-add
  11264, on gdev, hix and gpucc: the ``user_segments`` list as
  ``(kind, duration, label)``, ``run_multiuser`` at 1, 2 and 4 users,
  and ``simulate_concurrent`` of three copies (makespan, every
  per-user timeline field, and the stats dict);
* ``LiteProfile.from_workload`` units for hix and gdev;
* the ``figure8()``/``figure9()`` series;
* ``fair_crosscheck`` at three users on three workloads;
* ``run_single`` of a small matrix-add on each mode (seconds and the
  per-category breakdown).

The single-user golden files pin the sealed stack's charges; this one
pins how the per-backend cost terms reach the multi-user segments, so
moving where a cost formula lives cannot change what the model reports.
Regenerate (only on a deliberate simulated-time change) with
``python tests/property/test_prop_analytic.py``.
"""

import json
import pathlib
import sys

import pytest

from repro.core.multiuser import simulate_concurrent
from repro.evalkit.figures import figure8, figure9
from repro.evalkit.harness import run_multiuser, run_single, user_segments
from repro.evalkit.serve_sweep import fair_crosscheck
from repro.fleet.lite import LiteProfile
from repro.sim.costs import CostModel
from repro.workloads import MatrixAdd, MatrixMul, rodinia_workloads

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "analytic_model.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

MODES = ("gdev", "hix", "gpucc")
LITE_MODES = ("hix", "gdev")
USERS = (1, 2, 4)
FAIR_USERS = 3


def _workloads():
    return list(rodinia_workloads()) + [
        MatrixAdd(2048), MatrixMul(2048), MatrixAdd(11264)]


def _r(value):
    return None if value is None else repr(value)


def _timeline(timeline):
    return [_r(timeline.finish_time), _r(timeline.gpu_busy),
            _r(timeline.host_busy), _r(timeline.waits)]


def _capture_workload(workload, mode, costs):
    segments = user_segments(workload, costs, mode)
    makespan, timelines, stats = simulate_concurrent(
        [segments] * 3, costs.gpu_context_switch)
    return {
        f"segments:{workload.name}:{mode}": [
            [seg.kind, _r(seg.duration), seg.label] for seg in segments],
        f"multiuser:{workload.name}:{mode}": {
            str(n): _r(run_multiuser(workload, mode, n, costs))
            for n in USERS},
        f"concurrent:{workload.name}:{mode}": {
            "makespan": _r(makespan),
            "timelines": [_timeline(t) for t in timelines],
            "stats": {key: _r(value)
                      for key, value in sorted(stats.items())},
        },
    }


def capture():
    costs = CostModel()
    out = {}
    for workload in _workloads():
        for mode in MODES:
            out.update(_capture_workload(workload, mode, costs))
        for mode in LITE_MODES:
            profile = LiteProfile.from_workload(workload, costs, mode=mode)
            out[f"lite:{workload.name}:{mode}"] = [
                [_r(unit.host_seconds), _r(unit.gpu_seconds), unit.label]
                for unit in profile.units]
    for name, figure in (("figure8", figure8()), ("figure9", figure9())):
        out[name] = {series: [_r(value) for value in values]
                     for series, values in sorted(figure.series.items())}
    for workload in (MatrixAdd(2048), rodinia_workloads(("PF",))[0],
                     rodinia_workloads(("BP",))[0]):
        result = fair_crosscheck(workload, FAIR_USERS)
        out[f"fair:{workload.name}"] = [
            _r(result.oracle_makespan), _r(result.fair_makespan),
            result.oracle_switches, result.fair_switches]
    for mode in MODES:
        result = run_single(MatrixAdd(256), mode, 64.0)
        out[f"run_single:{mode}"] = {
            "seconds": _r(result.seconds),
            "breakdown": {key: _r(value)
                          for key, value in sorted(result.breakdown.items())},
        }
    return out


@pytest.fixture(scope="module")
def captured():
    return capture()


def test_golden_keys(captured):
    assert sorted(captured) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_matches_golden(captured, key):
    assert captured[key] == GOLDEN[key]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
