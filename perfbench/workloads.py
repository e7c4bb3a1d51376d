"""The benchmark's four workloads: inputs from a seed, one op, its check.

Each workload is a closed loop with one client on one thread: the next
op starts only after the previous one returned.  :meth:`setup` builds
and boots whatever the ops reuse; :meth:`op` runs op *index* and returns
an :class:`OpResult` whose ``digest`` hashes the op's simulated outputs.
An op whose outputs are wrong raises :class:`CheckFailed`.

Ops with the same ``key`` must produce the same digest; the runner
enforces that across a run, and between traced and untraced ops.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.chaos.campaign import run_campaign
from repro.evalkit.serve_sweep import SWEEP_QUOTA
from repro.fleet import Fleet, LiteProfile
from repro.serve import ServeEngine
from repro.serve.jobs import submit_workload
from repro.system import Machine, MachineConfig
from repro.workloads import rodinia_workloads
from repro.workloads.matrix import MatrixAdd

BACKENDS = ("hix", "gpucc")
SERVE_INFLATION = 8192.0


class CheckFailed(Exception):
    """An op's simulated outputs failed the benchmark's check."""


@dataclass
class OpResult:
    key: str
    digest: str
    #: Work done, by unit: ``sim_requests``, ``sealed_bytes``,
    #: ``lite_sessions``, and the memo's ``memo_hits``/``memo_lookups``.
    work: Dict[str, int] = field(default_factory=dict)


def digest_of(outputs) -> str:
    """A short stable hash of an op's simulated outputs (exact floats)."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]


def _rodinia(name: str):
    return {w.name: w for w in rodinia_workloads()}[name]


def _served_rows(report) -> List[tuple]:
    return [(t.name, t.served, t.submitted) for t in report.tenants]


class ServeMix:
    """Four tenants (nn, gaussian, hotspot, backprop) under the fair
    scheduler, served once on a pre-booted HIX machine and once on a
    pre-booted GPU-CC machine: 128 sealed requests per op."""

    name = "serve-mix"
    TENANTS = ("nn", "gaussian", "hotspot", "backprop")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.workloads = [_rodinia(name) for name in self.TENANTS]
        self._per_op = 0  # contiguous DRAM one op takes on one machine
        self.rebuilds = 0

    def setup(self):
        booted = {}
        for backend in BACKENDS:
            machine = Machine(MachineConfig(data_inflation=SERVE_INFLATION,
                                            backend=backend))
            booted[backend] = (machine, machine.boot_secure())
        return booted

    @staticmethod
    def _contiguous_used(booted) -> List[int]:
        # The OS frame allocator bumps a cursor for contiguous frames and
        # never takes them back, so every session's 4 MiB channel region
        # stays allocated on the reused machines.
        return [machine.kernel.frames._cursor
                for machine, _ in booted.values()]

    @staticmethod
    def _contiguous_left(booted) -> int:
        return min(machine.config.dram_size - machine.config.epc_size
                   - machine.kernel.frames._cursor
                   for machine, _ in booted.values())

    def refresh(self, booted) -> None:
        """Rebuild the reused machines, in place, before DRAM runs out.

        Called between ops, untimed.  Without it the op after about 249
        ops fails with "out of contiguous physical frames"; the loss per
        op is reported (``osmodel.unreclaimed_mb``), not hidden.
        """
        if self._per_op and self._contiguous_left(booted) < 2 * self._per_op:
            self.rebuilds += 1
            booted.clear()  # free the old machines before building anew
            booted.update(self.setup())

    def op(self, booted, index: int) -> OpResult:
        outputs, served, hits, lookups = [], 0, 0, 0
        used_before = self._contiguous_used(booted)
        for backend in BACKENDS:
            machine, service = booted[backend]
            engine = ServeEngine(machine, service=service, scheduler="fair",
                                 max_tenants=len(self.workloads),
                                 default_quota=SWEEP_QUOTA)
            for tenant, workload in enumerate(self.workloads):
                client = engine.add_tenant(f"t{tenant}-{workload.name}")
                submit_workload(client, workload, SERVE_INFLATION,
                                machine.costs, seed=self.seed + tenant,
                                backend=backend)
            report = engine.run()
            rows = _served_rows(report)
            if any(row[1] != row[2] for row in rows) or report.makespan <= 0:
                raise CheckFailed(f"{backend}: served/submitted {rows}, "
                                  f"makespan {report.makespan!r}")
            stats = engine.memo.stats()
            hits += stats["hits"]
            lookups += stats["hits"] + stats["misses"]
            served += sum(row[1] for row in rows)
            outputs.append((backend, report.makespan, rows))
        used = self._contiguous_used(booted)
        self._per_op = max(self._per_op, *(after - before for after, before
                                           in zip(used, used_before)))
        return OpResult("serve", digest_of(outputs),
                        {"sim_requests": served, "memo_hits": hits,
                         "memo_lookups": lookups,
                         "unreclaimed_bytes": sum(used) - sum(used_before)})

    def diagnostics(self, booted, ops: int, work: Dict[str, int]) -> List[str]:
        """The DRAM the reused machines never reclaim."""
        per_op = work.get("unreclaimed_bytes", 0) / max(ops, 1)
        if not self._per_op:
            return ["unreclaimed    no contiguous DRAM lost per op"]
        config = MachineConfig()
        capacity = (config.dram_size - config.epc_size) // self._per_op
        return [f"unreclaimed    {per_op / 1e6:.2f} MB of contiguous DRAM "
                f"per op is never freed on the reused machines; they run "
                f"out after about {capacity} ops and were rebuilt "
                f"{self.rebuilds} time(s) between ops (untimed)"]


class DatapathBulk:
    """``builtin.matrix_add`` through one long-lived attested session
    per backend at inflation 1: two sealed HtoD copies, one launch and a
    DtoH copy checked against numpy, per backend."""

    name = "datapath-bulk"
    #: Operand sizes in bytes; every block of three ops runs each once,
    #: in an order drawn from the seed.
    SIZES = (4 << 10, 64 << 10, 1 << 20)
    #: Distinct operand pairs per size (odd, so traced and untraced ops
    #: of the alternating traced run both see every pair).
    PAIRS = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.inputs = {}
        for size in self.SIZES:
            pairs = []
            for _ in range(self.PAIRS):
                a = rng.integers(0, 1 << 30, size=size // 4, dtype=np.int32)
                b = rng.integers(0, 1 << 30, size=size // 4, dtype=np.int32)
                pairs.append((a, b, a + b))
            self.inputs[size] = pairs
        self._order_rng = np.random.default_rng([seed, 1])
        self._order: List[int] = []

    def size_of(self, index: int) -> int:
        while len(self._order) <= index:
            self._order.extend(
                int(i) for i in self._order_rng.permutation(len(self.SIZES)))
        return self.SIZES[self._order[index]]

    def setup(self):
        sessions = {}
        for backend in BACKENDS:
            machine = Machine(MachineConfig(backend=backend))
            api = machine.secure_session(machine.boot_secure(), name="bulk")
            api.cuCtxCreate()
            module = api.cuModuleLoad(["builtin.matrix_add"])
            buffers = {size: [api.cuMemAlloc(size) for _ in range(3)]
                       for size in self.SIZES}
            sessions[backend] = (api, module, buffers)
        return sessions

    def op(self, sessions, index: int) -> OpResult:
        size = self.size_of(index)
        pair = index % self.PAIRS
        a, b, want = self.inputs[size][pair]
        outputs = []
        for backend in BACKENDS:
            api, module, buffers = sessions[backend]
            d_a, d_b, d_c = buffers[size]
            api.cuMemcpyHtoD(d_a, a)
            api.cuMemcpyHtoD(d_b, b)
            api.cuLaunchKernel(module, "builtin.matrix_add",
                               [d_a, d_b, d_c, a.size])
            got = np.frombuffer(api.cuMemcpyDtoH(d_c, size), dtype=np.int32)
            if not np.array_equal(got, want):
                raise CheckFailed(f"{backend}: matrix_add of {size} B "
                                  f"differs from numpy")
            outputs.append((backend, size, pair, True))
        return OpResult(f"{size}B/pair{pair}", digest_of(outputs),
                        {"sealed_bytes": 3 * size * len(BACKENDS)})


class ChaosSmoke:
    """The ``smoke`` chaos campaign on HIX then on GPU-CC; the op fails
    unless security, fairness and detection all hold on both."""

    name = "chaos-smoke"
    #: Op *i* runs campaign seed ``seed + i % SEEDS``.
    SEEDS = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        return None

    def op(self, _state, index: int) -> OpResult:
        campaign_seed = self.seed + index % self.SEEDS
        outputs, served = [], 0
        for backend in BACKENDS:
            result = run_campaign("smoke", seed=campaign_seed,
                                  backend=backend)
            verdicts = (result.security_ok, result.fairness_ok,
                        result.detection_ok)
            if not all(verdicts):
                raise CheckFailed(f"{backend} seed {campaign_seed}: "
                                  f"security/fairness/detection {verdicts}")
            served += sum(t.served for t in result.baseline.tenants)
            served += sum(t.served for t in result.chaos.tenants)
            outputs.append((backend, verdicts, result.baseline.makespan,
                            result.chaos.makespan,
                            _served_rows(result.baseline),
                            _served_rows(result.chaos)))
        return OpResult(f"campaign-seed{campaign_seed}", digest_of(outputs),
                        {"sim_requests": served})


class FleetLite:
    """A fresh 4-machine FIFO fleet at inflation 8192 running 5,000 lite
    sessions, split by seed across three coalesced profiles."""

    name = "fleet-lite"
    MACHINES = 4
    SESSIONS = 5000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = MachineConfig(data_inflation=SERVE_INFLATION)
        costs = self.config.build_costs()
        self.profiles = [
            LiteProfile.from_workload(workload, costs).coalesced(4)
            for workload in (MatrixAdd(2048), _rodinia("nn"),
                             _rodinia("gaussian"))]
        # Equal thirds in an order drawn from the seed: the seed moves
        # placement, never the amount of work.
        shares = np.arange(self.SESSIONS) % len(self.profiles)
        self.assignment = [int(i) for i in
                           np.random.default_rng(seed).permutation(shares)]

    def setup(self):
        return None

    def op(self, _state, index: int) -> OpResult:
        fleet = Fleet(machines=self.MACHINES, scheduler="fifo",
                      machine_config=self.config)
        for session, profile in enumerate(self.assignment):
            fleet.add_lite_session(f"lite{session}", self.profiles[profile])
        report = fleet.run()
        tenants = report.merged.tenants
        incomplete = [t.name for t in tenants
                      if t.timed_out or t.served != t.submitted]
        if len(tenants) != self.SESSIONS or incomplete \
                or report.makespan <= 0:
            raise CheckFailed(f"{len(tenants)} sessions, incomplete "
                              f"{incomplete[:3]}, makespan "
                              f"{report.makespan!r}")
        per_machine = [len(r.tenants) for r in report.reports]
        outputs = (report.makespan, sum(t.served for t in tenants),
                   per_machine)
        return OpResult("fleet", digest_of(outputs),
                        {"lite_sessions": len(tenants)})


WORKLOADS = {cls.name: cls for cls in (ServeMix, DatapathBulk, ChaosSmoke,
                                       FleetLite)}
