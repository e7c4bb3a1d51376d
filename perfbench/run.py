"""Host wall-clock benchmark of the HIX simulator.

Run from the repository root::

    python3 perfbench/run.py --workload serve-mix --seed 0 --seconds 25 --trace 0

One process, one thread, one client issuing ops back to back (a closed
loop).  Set-up (build and boot what the ops reuse, plus one untimed
warm-up op) runs ``SETUP_REPS`` times and ``setup_s`` is its median.
Then ops run until ``--seconds`` have passed.  Every op's simulated
outputs are checked and digested (see ``workloads.py``); ops sharing a
key must share a digest.  A failed op counts in ``failed`` and the run
goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps each
layer's entry points (``layers.py``), alternates traced and untraced
ops, and reports per-op layer self times and counts; its digests must
equal the untraced ones.  Simulated time is checked, never measured.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5

#: Named seeds: the default, and one held out from tuning so a claimed
#: gain can be re-checked on inputs the change was not tuned on.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

END_TO_END = (("setup_s", "s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))

#: Workload -> (throughput metric, work unit, scale, unit).  Printed on
#: the untraced run; each applies to one or two workloads only.
RATES = {
    "serve-mix": ("sim_requests_per_s", "sim_requests", 1.0, "1/s"),
    "chaos-smoke": ("sim_requests_per_s", "sim_requests", 1.0, "1/s"),
    "datapath-bulk": ("sealed_MBps", "sealed_bytes", 1e-6, "MB/s"),
    "fleet-lite": ("lite_sessions_per_s", "lite_sessions", 1.0, "1/s"),
}

SELF_MS_LAYERS = (
    "system.machine_init", "system.boot", "system.session", "gpu.bios",
    "osmodel", "sgx", "crypto.dh", "crypto.aead", "hw.mmu", "hw.dma",
    "hw.phys_mem", "pcie", "gpu", "gdev", "core.runtime",
    "core.gpu_enclave", "core.channel", "backends.gpucc", "sim.engine",
    "serve.engine", "fleet", "fleet.router", "obs.timeseries", "obs.slo",
    "obs.audit", "chaos")

PER_LAYER = tuple((f"{layer}.self_ms", "ms") for layer in SELF_MS_LAYERS) + (
    ("osmodel.calls", "count"), ("osmodel.unreclaimed_mb", "MB"),
    ("sgx.calls", "count"),
    ("crypto.aead.bytes", "B"), ("hw.tlb_hit_ratio", "ratio"),
    ("hw.dma_bytes", "B"), ("pcie.calls", "count"),
    ("gpu.launches", "count"), ("gdev.calls", "count"),
    ("core.channel.messages", "count"), ("sim.engine.events", "count"),
    ("sim.engine.ctx_switches", "count"), ("serve.memo.hit_ratio", "ratio"),
    ("serve.requests", "count"), ("serve.retry.attempts", "count"),
    ("fleet.placements", "count"), ("obs.audit.events", "count"),
    ("chaos.faults_injected", "count"),
    ("trace.unattributed_ratio", "ratio"), ("trace.overhead_ratio", "ratio"),
    ("run.drift_ratio", "ratio"), ("run.retained_audit_events", "count"),
    ("run.live_machines", "count"))

#: Process-wide registry counters read per traced op.
REGISTRY_COUNTERS = {
    "sim.engine.events": "engine.events_processed",
    "sim.engine.ctx_switches": "engine.ctx_switches",
    "serve.requests": "serve.requests_served",
    "serve.retry.attempts": "serve.retry.attempts",
    "chaos.faults_injected": "chaos.faults_injected",
}


def bootstrap() -> None:
    """Put the checkout's simulator sources on the path, or exit."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under "
                         f"{ROOT / 'src'}; run from a repository checkout")
    sys.dont_write_bytecode = True
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def percentile(values: List[float], q: int) -> float:
    """The *q*-th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Run:
    """Everything one benchmark run measured."""

    workload: str
    seed: int
    trace: bool
    setup_s: List[float] = field(default_factory=list)
    op_s: List[float] = field(default_factory=list)
    traced_op_s: List[float] = field(default_factory=list)
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    work: Dict[str, int] = field(default_factory=dict)
    audit_growth: float = 0.0
    peak_rss_mb: float = 0.0
    #: Traced run only: per-op layer records, set-up layer times.
    layer_ops: List[Dict[str, float]] = field(default_factory=list)
    setup_layers_ms: Dict[str, float] = field(default_factory=dict)
    live_machines: int = 0
    #: Workload-specific findings, printed as they are.
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures

    def drift_ratio(self) -> float:
        """Median of the last tenth of untraced ops over the first."""
        tenth = max(len(self.op_s) // 10, 1)
        return (statistics.median(self.op_s[-tenth:])
                / statistics.median(self.op_s[:tenth]))

    def combined_digest(self) -> str:
        from perfbench.workloads import digest_of
        return digest_of(sorted(self.digests.items()))


class _Tracing:
    """The traced run's instruments: layer wrappers, instance logs and
    the process-wide counters they are read against."""

    def __init__(self) -> None:
        from perfbench.layers import InstanceLog, LayerTracer
        from repro.obs import metrics
        from repro.obs.audit import audit_log
        from repro.serve.memo import RequestTimingMemo
        from repro.sim.trace import FASTPATH_GAUGES
        from repro.system import Machine
        self.machines = InstanceLog(Machine)
        self.memos = InstanceLog(RequestTimingMemo)
        self.machines.install()
        self.memos.install()
        # Built after the logs so the wrappers wrap the logging __init__.
        self.tracer = LayerTracer()
        self.tracer.install()
        self._registry = metrics.registry
        self._audit_log = audit_log
        self._gauges = {name: getter for name, getter in FASTPATH_GAUGES}

    def _machine_counts(self, machine) -> List[int]:
        gauges = self._gauges
        return [gauges["tlb_hits"](machine), gauges["tlb_misses"](machine),
                gauges["dma_bytes_read"](machine)
                + gauges["dma_bytes_written"](machine)]

    def _registry_counts(self) -> Dict[str, int]:
        registry = self._registry()
        counts = {}
        for key, name in REGISTRY_COUNTERS.items():
            metric = registry.get(name)
            counts[key] = int(metric.value) if metric is not None else 0
        counts["fleet.placements"] = sum(
            int(registry.get(name).value) for name in registry.names()
            if name.startswith("fleet.placement.")
            and name.endswith(".placed"))
        counts["obs.audit.events"] = len(self._audit_log())
        return counts

    def close(self) -> None:
        """Restore every patched name, innermost wrappers last."""
        self.tracer.uninstall()
        self.machines.uninstall()
        self.memos.uninstall()

    def begin(self, traced: bool) -> None:
        tracer = self.tracer
        if not traced:
            tracer.on = False
            tracer.uninstall()
            return
        tracer.install()
        tracer.reset()
        self._before_machines = {m: self._machine_counts(m)
                                 for m in self.machines.take()}
        self._before_memos = {m: (m.hits, m.misses)
                              for m in self.memos.take()}
        self._before_registry = self._registry_counts()
        self.machines.collecting = self.memos.collecting = True
        tracer.on = True

    def end(self, wall_s: float) -> Dict[str, float]:
        """Per-op record of the traced op that just ran."""
        tracer = self.tracer
        tracer.on = False
        self.machines.collecting = self.memos.collecting = False
        record = {f"{layer}.self_ms": tracer.self_s.get(layer, 0.0) * 1e3
                  for layer in SELF_MS_LAYERS}
        for layer in ("osmodel", "sgx", "pcie", "gdev"):
            record[f"{layer}.calls"] = tracer.calls.get(layer, 0)
        for counter in ("gpu.launches", "core.channel.messages",
                        "crypto.aead.bytes"):
            record[counter] = tracer.counts.get(counter, 0)
        hits = misses = dma = 0
        for machine in self.machines.take():
            now = self._machine_counts(machine)
            then = self._before_machines.get(machine, [0, 0, 0])
            hits += now[0] - then[0]
            misses += now[1] - then[1]
            dma += now[2] - then[2]
        record.update({"_tlb_hits": hits, "_tlb_lookups": hits + misses,
                       "hw.dma_bytes": dma})
        memo_hits = memo_lookups = 0
        for memo in self.memos.take():
            then = self._before_memos.get(memo, (0, 0))
            memo_hits += memo.hits - then[0]
            memo_lookups += memo.hits + memo.misses - then[0] - then[1]
        record.update({"_memo_hits": memo_hits,
                       "_memo_lookups": memo_lookups})
        after = self._registry_counts()
        for key, value in after.items():
            record[key] = value - self._before_registry[key]
        record["trace.unattributed_ratio"] = (
            max(wall_s - tracer.covered_s, 0.0) / wall_s)
        return record


def _record_op(run: Run, key: str, digest: str) -> None:
    first = run.digests.setdefault(key, digest)
    if first != digest:
        from perfbench.workloads import CheckFailed
        raise CheckFailed(f"op {key}: digest {digest} differs from "
                          f"{first} earlier in this run")


def _run_op(run: Run, workload, state, index: int) -> Optional[object]:
    """One checked op; returns its result, or None if it failed."""
    from perfbench.workloads import CheckFailed
    try:
        result = workload.op(state, index)
        _record_op(run, result.key, result.digest)
        return result
    except CheckFailed as exc:
        run.failures.append(f"op {index}: {exc}")
    except Exception:  # the run must go on; the failure is reported
        run.failures.append(f"op {index}: {traceback.format_exc()}")
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_reps: int = SETUP_REPS) -> Run:
    """Set up, then run ops of *name* for *seconds*; see module doc."""
    from perfbench.workloads import WORKLOADS
    from repro.obs.audit import audit_log

    run = Run(workload=name, seed=seed, trace=trace)
    tracing = _Tracing() if trace else None
    if tracing is not None:
        tracing.tracer.reset()
        tracing.tracer.on = True
    for _ in range(setup_reps):
        workload = state = None  # let the previous set-up be freed first
        start = time.perf_counter()
        workload = WORKLOADS[name](seed)
        state = workload.setup()
        warm = _run_op(run, workload, state, 0)
        run.setup_s.append(time.perf_counter() - start)
        if warm is None:
            run.failures[-1] = "warm-up " + run.failures[-1]
        # Reference cycles keep an earlier set-up's machines alive until a
        # full collection; without one, peak_rss_mb counts them by chance.
        gc.collect()
    if tracing is not None:
        tracing.tracer.on = False
        run.setup_layers_ms = {
            layer: tracing.tracer.self_s.get(layer, 0.0) * 1e3 / setup_reps
            for layer in SELF_MS_LAYERS}

    audit_before = len(audit_log())
    refresh = getattr(workload, "refresh", None)
    index = 0
    window_start = time.perf_counter()
    while True:
        traced = trace and index % 2 == 0
        if refresh is not None:
            refresh(state)
        if tracing is not None:
            tracing.begin(traced)
        start = time.perf_counter()
        result = _run_op(run, workload, state, index)
        elapsed = time.perf_counter() - start
        run.attempted += 1
        if tracing is not None and traced:
            record = tracing.end(elapsed)
            record["osmodel.unreclaimed_mb"] = (
                result.work.get("unreclaimed_bytes", 0) / 1e6
                if result is not None else 0.0)
            run.layer_ops.append(record)
        if result is None:
            run.failed += 1
        else:
            (run.traced_op_s if traced else run.op_s).append(elapsed)
            for unit, amount in result.work.items():
                run.work[unit] = run.work.get(unit, 0) + amount
        index += 1
        # The traced run needs a traced and an untraced op at least.
        if (time.perf_counter() - window_start >= seconds
                and index >= (2 if trace else 1)):
            break
    run.window_s = time.perf_counter() - window_start
    if hasattr(workload, "diagnostics"):
        run.notes = workload.diagnostics(
            state, len(run.op_s) + len(run.traced_op_s), run.work)
    run.audit_growth = (len(audit_log()) - audit_before) / run.attempted
    if tracing is not None:
        workload = state = result = None
        gc.collect()
        run.live_machines = len(tracing.machines.live)
        tracing.close()
    run.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       * 1024 / 1e6)
    return run


def end_to_end_metrics(run: Run) -> Dict[str, float]:
    times = run.op_s or [0.0]  # every op failed: ``correct`` is false
    return {
        "setup_s": statistics.median(run.setup_s),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_p90": percentile(times, 90) * 1e3,
        "ops_per_s": len(run.op_s) / run.window_s,
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer_metrics(run: Run) -> Dict[str, float]:
    ops = run.layer_ops
    metrics: Dict[str, float] = {}
    for name, _ in PER_LAYER:
        if ops and name in ops[0]:
            metrics[name] = statistics.median(op[name] for op in ops)

    def ratio(part: str, whole: str) -> float:
        total = sum(op[whole] for op in ops)
        return sum(op[part] for op in ops) / total if total else 0.0

    metrics["hw.tlb_hit_ratio"] = ratio("_tlb_hits", "_tlb_lookups")
    metrics["serve.memo.hit_ratio"] = ratio("_memo_hits", "_memo_lookups")
    if run.op_s and run.traced_op_s:
        metrics["trace.overhead_ratio"] = (
            statistics.median(run.traced_op_s) / statistics.median(run.op_s))
        metrics["run.drift_ratio"] = run.drift_ratio()
    metrics["run.retained_audit_events"] = run.audit_growth
    metrics["run.live_machines"] = run.live_machines
    # A metric no successful op measured reads 0; ``correct`` is false.
    return {name: metrics.get(name, 0.0) for name, _ in PER_LAYER}


def render(run: Run) -> List[str]:
    """Human-readable report lines (everything but the JSON line)."""
    lines = [f"perfbench {run.workload} seed={run.seed} "
             f"trace={int(run.trace)}: closed loop, 1 client, 1 thread"]
    setups = ", ".join(f"{s:.4f}" for s in run.setup_s)
    lines.append(f"  setup_s        {statistics.median(run.setup_s):.4f} s "
                 f"(median of {len(run.setup_s)}: {setups})")
    if run.op_s:
        e2e = end_to_end_metrics(run)
        lines.append(f"  op_ms_p50      {e2e['op_ms_p50']:.3f} ms "
                     f"(n={len(run.op_s)} untraced ops)")
        lines.append(f"  op_ms_p90      {e2e['op_ms_p90']:.3f} ms "
                     f"(n={len(run.op_s)}, {len(run.op_s) // 10} beyond it)")
        lines.append(f"  ops_per_s      {e2e['ops_per_s']:.3f} 1/s "
                     f"over {run.window_s:.2f} s")
        if not run.trace:
            metric, unit_name, scale, unit = RATES[run.workload]
            rate = run.work.get(unit_name, 0) * scale / run.window_s
            lines.append(f"  {metric:<14} {rate:.3f} {unit}")
    lines.append(f"  peak_rss_mb    {run.peak_rss_mb:.1f} MB")
    lines.append(f"  error_rate     {run.failed}/{run.attempted} = "
                 f"{run.failed / max(run.attempted, 1):.4f}")
    if "memo_lookups" in run.work:
        lookups = run.work["memo_lookups"]
        lines.append(f"  memo hit share {run.work['memo_hits']}/{lookups}"
                     f" = {run.work['memo_hits'] / max(lookups, 1):.4f} "
                     "(memo.stats())")
    if len(run.op_s) > 1:
        lines.append(f"  drift          last/first tenth of ops = "
                     f"{run.drift_ratio():.3f}")
    lines.append(f"  retained       {run.audit_growth:.1f} audit events "
                 "per op, never trimmed")
    lines.extend(f"  {note}" for note in run.notes)
    lines.append(f"  digest         {run.combined_digest()} over "
                 f"{len(run.digests)} op key(s)")
    for key in sorted(run.digests):
        lines.append(f"    {key}: {run.digests[key]}")
    for failure in run.failures[:10]:
        lines.append(f"  FAILED {failure.strip()}")
    if run.trace and run.layer_ops and run.traced_op_s:
        lines.extend(render_layers(run))
    return lines


def render_layers(run: Run) -> List[str]:
    ops = run.layer_ops
    op_ms = statistics.median(run.traced_op_s) * 1e3
    lines = [f"  per-layer self time, median per traced op "
             f"(n={len(ops)}, traced op p50 {op_ms:.3f} ms):",
             f"    {'layer':<20} {'setup ms':>10} {'op ms':>10} "
             f"{'share':>7} {'calls/op':>10}"]
    calls = {layer: statistics.median(op.get(f"{layer}.calls", 0)
                                      for op in ops)
             for layer in ("osmodel", "sgx", "pcie", "gdev")}
    for layer in SELF_MS_LAYERS:
        self_ms = statistics.median(op[f"{layer}.self_ms"] for op in ops)
        count = calls.get(layer)
        lines.append(f"    {layer:<20} {run.setup_layers_ms[layer]:>10.3f} "
                     f"{self_ms:>10.3f} {self_ms / op_ms:>7.1%} "
                     f"{'' if count is None else format(count, '.0f'):>10}")
    metrics = per_layer_metrics(run)
    for name, unit in PER_LAYER:
        if not name.endswith(".self_ms") and not name.endswith(".calls"):
            lines.append(f"    {name:<28} {metrics[name]:.6g} {unit}")
    lines.append(f"    live Machine objects after the run: "
                 f"{run.live_machines} (weakrefs, after gc.collect())")
    return lines


def result_json(run: Run) -> Dict[str, object]:
    if run.trace:
        values, units = per_layer_metrics(run), dict(PER_LAYER)
    else:
        values, units = end_to_end_metrics(run), dict(END_TO_END)
    return {"correct": run.correct, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-mix", "datapath-bulk", "chaos-smoke",
                                 "fleet-lite"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print("\n".join(render(run)))
    print(json.dumps(result_json(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
