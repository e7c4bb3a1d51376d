"""Named chaos campaigns: composed faults + abuse + a three-sided verdict.

A campaign runs the same victim workloads twice, each time on a fresh
:class:`~repro.fleet.Fleet` of ``campaign.machines`` machines sharing
one event kernel (a 1-machine fleet is bit-identical to a bare engine
run, so single-machine campaigns lose nothing):

1. **baseline** — victims alone, no faults, no abuse (resilience knobs
   identical, so the comparison isolates the chaos, not the config);
2. **chaos** — victims plus abusive tenants, with a seeded fault script
   injected at virtual times by one
   :class:`~repro.chaos.injector.FaultInjector` per machine.

The verdict is deliberately three-sided, because production cares about
all three at once:

* **security holds** — every fault's tamper/recovery checks pass, every
  victim round's integrity/cleanse check passes, and no adversary trap
  buffer ever contains a victim secret in plaintext;
* **fairness holds** — each victim's finish-time slowdown versus its
  baseline stays within the campaign's declared bound, and victim
  goodput (served / submitted) stays at or above the declared floor;
* **detection holds** — the monitoring plane *noticed* every injected
  fault: a matching security-audit event or SLO alert exists within the
  campaign's virtual-time detection bound (see
  :mod:`~repro.chaos.detection`).  Victim latency objectives are
  self-calibrated from the baseline run's own telemetry, so the same
  campaign holds on every backend without per-backend thresholds.

Everything is virtual-time and seeded: two runs of the same campaign
with the same seed render byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.abuse import ABUSE_KINDS, AbusePlan
from repro.chaos.detection import (
    DetectionCheck,
    match_detections,
    victim_latency_target,
)
from repro.chaos.faults import (
    AeadTamperFault,
    DmaRedirectFault,
    Fault,
    GpuResetFault,
    SchedulerStormFault,
    SessionKillFault,
    StarvationFault,
)
from repro.chaos.fleet import fleet_migration_faults
from repro.chaos.injector import FaultInjector
from repro.chaos.workload import (
    SECRET_PREFIX,
    VictimPlan,
    submit_victim_stream,
)
from repro.fleet import Fleet, FleetReport, MigrationRecord
from repro.obs import metrics as obs_metrics
from repro.obs.audit import audit_log
from repro.obs.slo import Alert, AlertManager, SloObjective
from repro.obs.timeseries import TimeSeriesSampler
from repro.serve.engine import ServeEngine, ServeReport
from repro.serve.resilience import (
    KIND_CRYPTO,
    KIND_DEVICE_LOST,
    KIND_QUEUE_FULL,
    KIND_REJECTED,
    BreakerConfig,
    RetryPolicy,
)
from repro.serve.session import TenantQuota
from repro.sim.engine import EventClock
from repro.system import MachineConfig


@dataclass
class SecurityCheck:
    """One named pass/fail fact contributing to the security verdict."""

    name: str
    subject: str
    ok: bool
    detail: str = ""


@dataclass
class FairnessCheck:
    """One victim's service-quality comparison against its baseline."""

    tenant: str
    baseline_finish: float
    chaos_finish: float
    slowdown: float
    goodput: float
    ok: bool


@dataclass
class Campaign:
    """A reproducible chaos scenario: who runs, what breaks, what must hold."""

    name: str
    description: str
    #: Builds the fault script from the placed chaos fleet and this
    #: campaign: one fault list per machine, in machine order.  It may
    #: also book fleet-level events (``Fleet.plan_migration``).
    faults_factory: Callable[[Fleet, "Campaign"], List[List[Fault]]]
    victims: int = 2
    rounds: int = 3
    chunk_bytes: int = 4096
    #: Abuse streams to run alongside, by kind (see ABUSE_KINDS).
    abuse: Tuple[str, ...] = ()
    scheduler: str = "fair"
    #: TEE backend both runs boot (see :mod:`repro.backends`).
    backend: str = "hix"
    #: Victim finish-time slowdown bound versus the faultless baseline.
    fairness_bound: float = 4.0
    #: Minimum victim served/submitted ratio under chaos.
    goodput_floor: float = 0.9
    #: Maximum virtual seconds between a fault's injection and its
    #: matching alert or audit event (the detection verdict).
    detection_bound: float = 8.0e-3
    data_inflation: float = 64.0
    #: Resilience knobs for both runs.  Campaigns that stack several
    #: faults on one victim need enough attempts to ride out two
    #: recovery cycles, and a breaker tolerant enough not to shed a
    #: victim that is failing *because of the injected faults*.
    retry_policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=6))
    breaker: BreakerConfig = field(
        default_factory=lambda: BreakerConfig(window=8,
                                              failure_threshold=0.8,
                                              cooldown=1e-3))
    #: Machines in each run's fleet; victims are placed least-loaded.
    machines: int = 1

    def victim_names(self) -> List[str]:
        return [f"victim{index}" for index in range(self.victims)]


@dataclass
class CampaignResult:
    """Everything a campaign measured, plus the rendered verdict."""

    campaign: str
    seed: int
    faults: List[Fault]
    security: List[SecurityCheck]
    fairness: List[FairnessCheck]
    baseline: ServeReport
    chaos: ServeReport
    fairness_bound: float
    goodput_floor: float
    abuse_plans: List[AbusePlan] = field(default_factory=list)
    backend: str = "hix"
    detection: List[DetectionCheck] = field(default_factory=list)
    detection_bound: float = 0.0
    alerts: List[Alert] = field(default_factory=list)

    @property
    def security_ok(self) -> bool:
        return all(check.ok for check in self.security)

    @property
    def fairness_ok(self) -> bool:
        return all(check.ok for check in self.fairness)

    @property
    def detection_ok(self) -> bool:
        return all(check.ok for check in self.detection)

    @property
    def ok(self) -> bool:
        return self.security_ok and self.fairness_ok and self.detection_ok

    def fault_kinds_fired(self) -> List[str]:
        return sorted({fault.kind for fault in self.faults if fault.fired})

    def render(self) -> str:
        lines = [f"chaos campaign '{self.campaign}' "
                 f"(seed={self.seed}, backend={self.backend})"]
        lines.append(f"  faults injected: {len([f for f in self.faults if f.fired])}"
                     f"/{len(self.faults)}"
                     f" ({', '.join(self.fault_kinds_fired()) or 'none'})")
        for fault in self.faults:
            state = "fired" if fault.fired else "pending"
            lines.append(f"    [{state}] {fault.label}"
                         + (f" — {fault.detail}" if fault.detail else ""))
        if self.abuse_plans:
            lines.append("  abuse tenants:")
            for plan in self.abuse_plans:
                lines.append(f"    {plan.tenant} ({plan.kind}): "
                             f"{len(plan.submitted)} submitted, "
                             f"{plan.backpressured} backpressured")
        lines.append(f"  security checks ({len(self.security)}):")
        for check in self.security:
            mark = "PASS" if check.ok else "FAIL"
            lines.append(f"    [{mark}] {check.name} [{check.subject}]"
                         + (f": {check.detail}" if check.detail else ""))
        lines.append(f"  fairness (bound {self.fairness_bound:.2f}x slowdown, "
                     f"goodput floor {self.goodput_floor:.0%}):")
        for check in self.fairness:
            mark = "PASS" if check.ok else "FAIL"
            lines.append(
                f"    [{mark}] {check.tenant}: "
                f"{check.baseline_finish * 1e3:.3f} ms -> "
                f"{check.chaos_finish * 1e3:.3f} ms "
                f"({check.slowdown:.2f}x), goodput {check.goodput:.0%}")
        if self.detection:
            lines.append(f"  detection (bound "
                         f"{self.detection_bound * 1e3:.1f} ms):")
            for check in self.detection:
                lines.append(f"    {check.render()}")
        if self.alerts:
            lines.append(f"  alerts fired ({len(self.alerts)}):")
            for alert in self.alerts:
                lines.append(f"    {alert.render()}")
        lines.append(
            f"  verdict: security "
            f"{'PASS' if self.security_ok else 'FAIL'}, "
            f"fairness {'PASS' if self.fairness_ok else 'FAIL'}, "
            f"detection {'PASS' if self.detection_ok else 'FAIL'}"
            f" -> {'OK' if self.ok else 'VIOLATION'}")
        return "\n".join(lines)


def _victim_quota() -> TenantQuota:
    return TenantQuota(max_queue_depth=64, max_inflight=2,
                       device_memory_bytes=8 << 20)


def _abuse_quota(kind: str) -> TenantQuota:
    if kind == "queue_flood":
        # A tight queue is the flood's wall: most submissions bounce.
        return TenantQuota(max_queue_depth=8, max_inflight=1,
                           device_memory_bytes=1 << 20)
    # quota_probe, timeout_surf
    return TenantQuota(max_queue_depth=16, max_inflight=1,
                       device_memory_bytes=1 << 20)


def _build_fleet(campaign: Campaign, seed: int, with_abuse: bool,
                 telemetry: TimeSeriesSampler,
                 ) -> Tuple[Fleet, List[VictimPlan], List[AbusePlan]]:
    fleet = Fleet(machines=campaign.machines, scheduler=campaign.scheduler,
                  policy="least-loaded",
                  machine_config=MachineConfig(
                      data_inflation=campaign.data_inflation,
                      backend=campaign.backend),
                  max_tenants=campaign.victims + len(campaign.abuse),
                  retry_policy=campaign.retry_policy,
                  breaker=campaign.breaker,
                  seed=seed)
    for machine in fleet.machines:
        machine.engine.telemetry = telemetry
    plans: List[VictimPlan] = []
    for name in campaign.victim_names():
        client = fleet.add_session(name, quota=_victim_quota())
        plans.append(submit_victim_stream(
            client, rounds=campaign.rounds,
            chunk_bytes=campaign.chunk_bytes, seed=seed))
    abuse_plans: List[AbusePlan] = []
    if with_abuse:
        for index, kind in enumerate(campaign.abuse):
            client = fleet.add_session(f"abuse-{kind}-{index}",
                                       quota=_abuse_quota(kind))
            abuse_plans.append(ABUSE_KINDS[kind](client, seed=index)
                               if kind == "queue_flood"
                               else ABUSE_KINDS[kind](client))
    return fleet, plans, abuse_plans


def _trap_escape_checks(engine: ServeEngine,
                        faults: Sequence[Fault]) -> List[SecurityCheck]:
    """No adversary trap buffer may hold a victim secret in plaintext.

    Traps only ever receive what crossed the untrusted path — sealed
    bytes.  Reading any plaintext marker out of one would mean the
    sealed channel leaked; every victim's marker starts with
    ``SECRET_PREFIX``, so the sweep looks for the prefix.
    """
    checks: List[SecurityCheck] = []
    adversary = engine.machine.adversary()
    for fault in faults:
        trap = getattr(fault, "trap", None)
        if trap is None:
            continue
        paddr, nbytes = trap
        contents = adversary.read_physical(paddr, nbytes)
        sealed = SECRET_PREFIX not in contents
        checks.append(SecurityCheck(
            name=f"{fault.kind}.trap_ciphertext_only",
            subject=fault.tenant or "trap",
            ok=sealed,
            detail="trap saw only sealed bytes" if sealed
            else "victim plaintext found in adversary trap buffer"))
    return checks


def _migration_checks(record: MigrationRecord) -> List[SecurityCheck]:
    """The drain fired, moved work, and re-established at a new epoch."""
    tenant = record.plan.tenant
    landed = record.target_client
    return [
        SecurityCheck(
            name="fleet.migration_completed",
            subject=tenant,
            ok=record.completed and record.requests_moved > 0,
            detail=(f"{record.requests_moved} request(s) drained and "
                    f"re-established on m{record.plan.target}"
                    if record.completed else
                    "drain never fired — stream finished first "
                    "(timing miscalibrated)")),
        SecurityCheck(
            name="fleet.migration_epoch_bump",
            subject=tenant,
            ok=landed is not None and landed.session_epoch >= 1,
            detail=("target session re-established at epoch "
                    f"{landed.session_epoch}" if landed is not None else
                    "no target client recorded")),
    ]


def _finish_time(report: FleetReport, tenant: str) -> float:
    """*tenant*'s finish time, max across machines.

    A migrated victim has a row on both machines — the source row ends
    at its drain, the target row at its true completion — so the max
    is when the victim's work actually finished.
    """
    return max((row.finish_time for machine_report in report.reports
                for row in machine_report.tenants if row.name == tenant),
               default=0.0)


def _serve_report(report: FleetReport) -> ServeReport:
    """One machine's own report (unprefixed names), else the merge."""
    return report.reports[0] if len(report.reports) == 1 else report.merged


def run_campaign_obj(campaign: Campaign, seed: int = 0) -> CampaignResult:
    """Execute *campaign* and assemble its three-sided verdict."""
    obs_metrics.registry().counter("chaos.campaigns_run").inc()

    base_sampler = TimeSeriesSampler()
    baseline_fleet, _, _ = _build_fleet(campaign, seed, with_abuse=False,
                                        telemetry=base_sampler)
    baseline = baseline_fleet.run()

    # Latency objectives are calibrated off this seed's own faultless
    # run, so the same campaign holds on every backend (gpu-cc's bounce
    # overhead shifts absolute latencies; the headroom ratio doesn't).
    objectives: Dict[str, SloObjective] = {}
    for name in campaign.victim_names():
        target = victim_latency_target(base_sampler, name)
        if target is not None:
            objectives[name] = SloObjective(availability=0.995,
                                            latency_target=target)

    chaos_sampler = TimeSeriesSampler()
    fleet, plans, abuse_plans = _build_fleet(campaign, seed,
                                             with_abuse=True,
                                             telemetry=chaos_sampler)
    script = campaign.faults_factory(fleet, campaign)
    if len(script) != len(fleet.machines):
        raise ValueError(f"campaign {campaign.name!r} scripted "
                         f"{len(script)} fault list(s) for "
                         f"{len(fleet.machines)} machine(s)")
    # Every machine's faults go on the one kernel the fleet runs on,
    # booked before any lane starts.
    injectors = [FaultInjector(faults) for faults in script]
    kernel = EventClock()
    for machine, injector in zip(fleet.machines, injectors):
        injector.attach(machine.engine, kernel)
    # Watermark the audit log so the baseline run's routine events can
    # never satisfy a detection match.
    watermark = audit_log().cursor()
    chaos = fleet.run(kernel=kernel)

    manager = AlertManager(chaos_sampler, objectives, audit=audit_log())
    manager.evaluate()
    slo_report = manager.report()
    faults = [fault for injector in injectors for fault in injector.faults]
    detection = match_detections(
        faults, audit_log().events_since(watermark), slo_report.alerts,
        campaign.detection_bound)

    security: List[SecurityCheck] = []
    for plan in plans:
        security.extend(SecurityCheck(*check) for check in plan.checks())
    for machine, injector in zip(fleet.machines, injectors):
        security.extend(SecurityCheck(*check)
                        for check in injector.verify(machine.engine))
        security.extend(_trap_escape_checks(machine.engine,
                                            injector.faults))
    for record in chaos.migrations:
        security.extend(_migration_checks(record))

    fairness: List[FairnessCheck] = []
    for plan in sorted(plans, key=lambda plan: plan.tenant):
        base = _finish_time(baseline, plan.tenant)
        after = _finish_time(chaos, plan.tenant)
        slowdown = after / base if base > 0.0 else 1.0
        goodput = plan.goodput()
        fairness.append(FairnessCheck(
            tenant=plan.tenant,
            baseline_finish=base,
            chaos_finish=after,
            slowdown=slowdown,
            goodput=goodput,
            ok=(slowdown <= campaign.fairness_bound
                and goodput >= campaign.goodput_floor)))

    return CampaignResult(campaign=campaign.name, seed=seed, faults=faults,
                          security=security, fairness=fairness,
                          baseline=_serve_report(baseline),
                          chaos=_serve_report(chaos),
                          fairness_bound=campaign.fairness_bound,
                          goodput_floor=campaign.goodput_floor,
                          abuse_plans=abuse_plans,
                          backend=campaign.backend,
                          detection=detection,
                          detection_bound=campaign.detection_bound,
                          alerts=slo_report.alerts)


# ---------------------------------------------------------------------------
# Named campaigns.  Fault times are virtual seconds, calibrated against
# the victim streams above: session establishment (attestation + key
# exchange for every tenant) occupies roughly the first 19 ms of the
# timeline at the default inflation, and victim requests then drain over
# the following ~5-8 ms — so the data faults land at 20-23.5 ms, inside
# the live-session window.  A fault that fires against a not-yet or
# no-longer live session records "nothing to kill" in its detail and
# its verify() checks fail, so miscalibration is loud, not silent.
# The fleet-migration script lives in :mod:`repro.chaos.fleet`.
# ---------------------------------------------------------------------------


def _churn_reset_faults(fleet: Fleet,
                        campaign: Campaign) -> List[List[Fault]]:
    victims = campaign.victim_names()
    return [[
        SessionKillFault(at=20.0e-3, tenant=victims[0]),
        DmaRedirectFault(at=21.0e-3, tenant=victims[1 % len(victims)]),
        AeadTamperFault(at=22.0e-3, tenant=victims[2 % len(victims)]),
        GpuResetFault(at=23.5e-3),
    ]]


def _smoke_faults(fleet: Fleet, campaign: Campaign) -> List[List[Fault]]:
    return [[GpuResetFault(at=20.5e-3)]]


def _storm_faults(fleet: Fleet, campaign: Campaign) -> List[List[Fault]]:
    return [[
        SchedulerStormFault(at=19.5e-3, duration=3.0e-3),
        StarvationFault(at=23.0e-3, duration=1.5e-3,
                        tenant=campaign.victim_names()[0]),
    ]]


CAMPAIGNS: Dict[str, Campaign] = {
    "churn-reset": Campaign(
        name="churn-reset",
        description=("Session kill + DMA redirect + AEAD tamper + GPU "
                     "reset against three victims, with queue-flooding "
                     "and quota-probing abuse tenants alongside."),
        faults_factory=_churn_reset_faults,
        victims=3,
        rounds=3,
        abuse=("queue_flood", "quota_probe"),
        fairness_bound=6.0,
        goodput_floor=0.85,
        # Four stacked faults: after three recovery cycles the victims
        # back off, so nothing probes the reset device for ~15 ms of
        # virtual time — detection is bounded by the next probe, not by
        # the monitoring plane.
        detection_bound=20.0e-3,
    ),
    "fleet-migration": Campaign(
        name="fleet-migration",
        description=("Two machines, four victims, one drained mid-run and "
                     "re-established on the other machine while DMA traps "
                     "fire on both and a GPU reset hits the source; "
                     "three-sided verdict across the whole fleet."),
        faults_factory=fleet_migration_faults,
        machines=2,
        victims=4,
        rounds=3,
        fairness_bound=6.0,
        goodput_floor=0.85,
        # The stay-behind source victim rides out two recovery cycles
        # (DMA trap, then the reset), so under gpu-cc — whose
        # re-establishment round trips are the slowest — nothing probes
        # the reset device until its retry backoff expires, ~23 virtual
        # ms after the fault.
        detection_bound=25.0e-3,
        # Ten attempts carry that victim through both recovery cycles.
        # An upload caught inside the redirected window can come back
        # as a structured enclave rejection rather than a device loss —
        # here that rejection IS the injected fault, so it must retry
        # through recovery like the other tamper kinds.
        retry_policy=RetryPolicy(
            max_attempts=10,
            retry_on=frozenset({KIND_QUEUE_FULL, KIND_DEVICE_LOST,
                                KIND_CRYPTO, KIND_REJECTED})),
    ),
    "smoke": Campaign(
        name="smoke",
        description=("CI smoke: one GPU reset mid-run with two abuse "
                     "tenants; asserts the full three-sided verdict fast."),
        faults_factory=_smoke_faults,
        victims=2,
        rounds=2,
        abuse=("queue_flood", "quota_probe"),
        fairness_bound=6.0,
        goodput_floor=0.85,
    ),
    "storm": Campaign(
        name="storm",
        description=("Adversarial arbitration: a context-switch storm "
                     "and a starvation window, plus a timeout-surfing "
                     "abuse tenant; no data faults — the verdict is "
                     "dominated by the fairness side."),
        faults_factory=_storm_faults,
        victims=2,
        rounds=3,
        abuse=("timeout_surf",),
        fairness_bound=8.0,
        goodput_floor=0.85,
        # Arbitration faults are only visible through windowed latency
        # alerts, and gpu-cc's bounce-buffer session setup delays the
        # first victim observations by several virtual milliseconds.
        detection_bound=10.0e-3,
    ),
}


def get_campaign(name: str) -> Campaign:
    try:
        return CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGNS))
        raise KeyError(f"unknown campaign {name!r} (known: {known})") from None


def campaign_catalog() -> Dict[str, str]:
    """Every runnable campaign name -> description."""
    return {name: campaign.description
            for name, campaign in CAMPAIGNS.items()}


def run_campaign(name: str, seed: int = 0,
                 backend: Optional[str] = None) -> CampaignResult:
    """Run the named campaign; the CLI entry point's whole backend.

    *backend*, when given, overrides the campaign's configured TEE
    backend — every campaign must hold its three-sided verdict under
    every backend.
    """
    campaign = get_campaign(name)
    if backend is not None and backend != campaign.backend:
        campaign = replace(campaign, backend=backend)
    return run_campaign_obj(campaign, seed)
