"""Fast self-check of the benchmark.

Run from the repository root::

    python3 perfbench/selfcheck.py

For each workload it runs one set-up and one op untraced, the same
traced (one traced and one untraced op), and the untraced run again
with the same seed.  It fails unless every op passes its output check,
every metric ``BENCHMARK.json`` names is printed with its unit, the
traced digests equal the untraced ones, and the seed gives the same
digests twice.  Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402


def check_workload(name: str, seed: int, spec: dict) -> list:
    """Problems found for workload *name* (empty when it is sound)."""
    problems = []
    untraced = bench.run_workload(name, seed, 0.0, False, setup_reps=1)
    traced = bench.run_workload(name, seed, 0.0, True, setup_reps=1)
    again = bench.run_workload(name, seed, 0.0, False, setup_reps=1)
    for label, run in (("untraced", untraced), ("traced", traced),
                       ("repeat", again)):
        if not run.correct or run.attempted < 1:
            problems.append(f"{label} run: {run.failed}/{run.attempted} "
                            f"ops failed: {run.failures}")
    for run, metrics in ((untraced, spec["end_to_end"]),
                         (traced, spec["per_layer"])):
        printed = "\n".join(bench.render(run))
        result = json.loads(json.dumps(bench.result_json(run)))
        want = {m["name"]: m["unit"] for m in metrics}
        got = {key: value["unit"] for key, value in result["metrics"].items()}
        if got != want:
            problems.append(f"metrics printed {sorted(got.items())} differ "
                            f"from BENCHMARK.json {sorted(want.items())}")
        for key, value in result["metrics"].items():
            if not math.isfinite(value["value"]):
                problems.append(f"{key} is not a finite number")
        if not run.trace:
            missing = [key for key in [*want, bench.RATES[name][0]]
                       if key not in printed]
            if missing:
                problems.append(f"report lines lack {missing}")
    if untraced.digests != again.digests:
        problems.append(f"seed {seed} gave digests {untraced.digests} then "
                        f"{again.digests}")
    shared = set(untraced.digests) & set(traced.digests)
    if not shared or any(untraced.digests[key] != traced.digests[key]
                         for key in shared):
        problems.append(f"traced digests {traced.digests} differ from "
                        f"untraced {untraced.digests}")
    return problems


def main() -> int:
    bench.bootstrap()
    from perfbench.layers import MEMBER_LAYERS, MODULE_LAYERS
    from perfbench.workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    failed = False
    layers = {layer for layer, _ in MEMBER_LAYERS + MODULE_LAYERS}
    if layers != set(bench.SELF_MS_LAYERS):
        print(f"layers.py layers {sorted(layers)} != run.py "
              f"{sorted(bench.SELF_MS_LAYERS)}")
        failed = True
    if sorted(names) != sorted(WORKLOADS):
        print(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
        failed = True
    for name in names:
        problems = check_workload(name, bench.DEFAULT_SEED, spec)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
