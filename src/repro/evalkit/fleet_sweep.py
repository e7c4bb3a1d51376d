"""Fleet-tier sweeps: cluster makespans vs the analytic model.

The same cross-check discipline :mod:`repro.evalkit.serve_sweep`
applies to one machine, applied to M: a :class:`~repro.fleet.Fleet`
serves *num_users* sessions through real sealed paths (or lite
profiles), and the resulting makespan is compared against the run's
per-machine decomposition.  Machines share nothing but the clock, so a
full-crypto fleet should match ``max over machines of serve_run(n_m)``
(the 1-machine serving path on the router's actual placement counts)
essentially exactly, and a lite fleet — whose sessions replay analytic
profiles — should match ``max over machines of run_multiuser(n_m)``
exactly.  The serve-vs-analytic residual between the two oracles is
the session-establishment overhead the serve sweep's own relative
cross-check already bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.evalkit.harness import DEFAULT_INFLATION, HIX, run_multiuser
from repro.evalkit.serve_sweep import SWEEP_QUOTA
from repro.fleet import Fleet, FleetReport, LiteProfile
from repro.serve.jobs import submit_workload
from repro.serve.session import TenantQuota
from repro.sim.costs import CostModel
from repro.system import MachineConfig
from repro.workloads.base import Workload


def fleet_run(workload: Workload, num_users: int,
              machines: int = 4,
              scheduler: str = "fair",
              policy: str = "least-loaded",
              inflation: float = DEFAULT_INFLATION,
              costs: Optional[CostModel] = None,
              quota: Optional[TenantQuota] = None,
              crypto_efficiency: Optional[float] = None,
              lite: bool = False,
              lite_max_units: int = 0,
              fast_path: bool = True) -> FleetReport:
    """One fleet run: *num_users* sessions routed over *machines*.

    With ``lite=False`` every session is a full-crypto tenant
    submitting *workload*'s real request stream; with ``lite=True``
    sessions replay the workload's analytic profile instead, which is
    what lets sweeps scale to 10k–1M users (``lite_max_units`` > 0
    additionally coalesces each profile to that many units).
    """
    config = MachineConfig(data_inflation=inflation)
    if costs is not None:
        config = MachineConfig(data_inflation=inflation, costs=costs)
    fleet = Fleet(machines=machines, scheduler=scheduler, policy=policy,
                  machine_config=config,
                  max_tenants=max(num_users, 1),
                  default_quota=quota or SWEEP_QUOTA,
                  crypto_efficiency=crypto_efficiency,
                  fast_path=fast_path)
    machine_costs = fleet.machines[0].machine.costs
    if lite:
        profile = LiteProfile.from_workload(workload, machine_costs)
        if lite_max_units > 0:
            profile = profile.coalesced(lite_max_units)
        fleet.add_lite_sessions(profile, num_users, prefix="user")
    else:
        for index in range(num_users):
            client = fleet.add_session(f"user{index}")
            submit_workload(client, workload, inflation, machine_costs,
                            seed=index)
    return fleet.run()


@dataclass
class FleetCrosscheckResult:
    """Fleet makespan vs its per-machine decomposition oracle.

    Two references are carried:

    * ``oracle_makespan`` — the decomposition oracle the delta is
      measured against.  For full-crypto runs it is the max over
      machines of a *1-machine serving run* on the same placement
      counts (the fleet claim — machines share nothing but the clock —
      makes this exact up to router bookkeeping).  For lite runs the
      sessions replay analytic profiles, so the analytic model itself
      is the oracle.
    * ``analytic_makespan`` — always the per-machine
      ``run_multiuser`` max, for the tie back to Figures 8/9.  The
      serve-vs-analytic residual visible between the two references is
      the session-establishment overhead the serve sweep's own
      relative cross-check already bounds.
    """

    workload: str
    machines: int
    num_users: int
    policy: str
    oracle_kind: str
    fleet_makespan: float
    oracle_makespan: float
    analytic_makespan: float
    per_machine_users: List[int]

    @property
    def relative_delta(self) -> float:
        if self.oracle_makespan <= 0.0:
            return 0.0
        return abs(self.fleet_makespan - self.oracle_makespan) \
            / self.oracle_makespan

    def render(self) -> str:
        shares = "/".join(str(n) for n in self.per_machine_users)
        return (f"fleet cross-check ({self.workload}, {self.num_users} "
                f"users over {self.machines} machines [{shares}], "
                f"policy={self.policy}): "
                f"fleet {self.fleet_makespan * 1e3:.3f} ms vs "
                f"{self.oracle_kind} oracle "
                f"{self.oracle_makespan * 1e3:.3f} ms, "
                f"delta {self.relative_delta * 100.0:.2f}% "
                f"(analytic {self.analytic_makespan * 1e3:.3f} ms)")


def fleet_crosscheck(workload: Workload, num_users: int,
                     machines: int = 4,
                     scheduler: str = "fair",
                     policy: str = "least-loaded",
                     costs: Optional[CostModel] = None,
                     inflation: float = DEFAULT_INFLATION,
                     lite: bool = False) -> FleetCrosscheckResult:
    """Pin a fleet run against its per-machine decomposition.

    The serving runs pin ``crypto_efficiency`` to the multi-user derate
    for comparability, exactly as :func:`serve_figure` does — the
    analytic segments derate in-GPU crypto unconditionally.  Both
    references are evaluated per machine on the router's actual
    placement counts and the max is taken: machines interleave on one
    clock but share no resources, so the slowest machine is the fleet.
    """
    from repro.evalkit.serve_sweep import serve_run
    costs = costs or CostModel()
    eff = costs.gpu_aead_multiuser_efficiency
    report = fleet_run(workload, num_users, machines=machines,
                       scheduler=scheduler, policy=policy,
                       inflation=inflation, costs=costs,
                       crypto_efficiency=eff, lite=lite)
    counts = [0] * machines
    for machine_index in report.placements.values():
        counts[machine_index] += 1
    analytic = max((run_multiuser(workload, HIX, n, costs)
                    for n in counts if n > 0), default=0.0)
    if lite:
        oracle_kind, oracle = "analytic", analytic
    else:
        oracle_kind = "serve-path"
        oracle = max((serve_run(workload, n, scheduler=scheduler,
                                inflation=inflation, costs=costs,
                                crypto_efficiency=eff).makespan
                      for n in counts if n > 0), default=0.0)
    return FleetCrosscheckResult(
        workload=workload.name,
        machines=machines,
        num_users=num_users,
        policy=report.policy,
        oracle_kind=oracle_kind,
        fleet_makespan=report.makespan,
        oracle_makespan=oracle,
        analytic_makespan=analytic,
        per_machine_users=counts,
    )

