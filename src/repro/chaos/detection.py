"""The detection verdict: every injected fault must be *noticed*.

The security and fairness verdicts prove the system defended itself and
kept serving; production-grade operation demands a third thing — that
the monitoring plane itself surfaced every fault while the run
executed.  This module matches each fired fault against the evidence
the telemetry stack produced:

* **audit events** (:mod:`repro.obs.audit`): the serve layer records
  ``serve.fault_detected`` when the sealed protocol or the device
  reports tampering/loss, ``serve.session_recovered`` on every epoch
  bump, and ``serve.service_restored`` when a dead GPU service comes
  back — each stamped at its virtual time;
* **SLO alerts** (:mod:`repro.obs.slo`): arbitration faults (storms,
  starvation windows) corrupt no data and trip no protocol error — the
  only way to see them is the latency/burn-rate telemetry, exactly as
  in production.

A fault counts as detected when matching evidence exists at or after
its injection time, and its **detection latency** (evidence time minus
injection time, in virtual seconds) stays within the campaign's
declared bound.  The match is scoped to events after the campaign's
audit watermark, so the baseline run's routine evidence can never
satisfy it; ``chaos.injected`` ground-truth records are likewise never
evidence for themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.obs.audit import AuditEvent
from repro.obs.slo import Alert
from repro.obs.timeseries import TimeSeriesSampler

__all__ = ["DetectionCheck", "match_detections", "victim_latency_target"]

#: Fault kinds whose only observable footprint is the SLO telemetry
#: (they corrupt no data, so no audit record fires).
TELEMETRY_ONLY_KINDS = frozenset({"ctx_storm", "starvation"})


@dataclass
class DetectionCheck:
    """One injected fault's monitoring-plane verdict."""

    fault: str
    kind: str
    tenant: str
    injected_at: float
    detected_at: Optional[float]
    via: str
    bound: float
    ok: bool
    detail: str = ""

    @property
    def latency(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    def render(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        if self.detected_at is None:
            tail = "NOT DETECTED"
        else:
            tail = (f"detected via {self.via} after "
                    f"{self.latency * 1e3:.3f} ms "
                    f"(bound {self.bound * 1e3:.1f} ms)")
        return (f"[{mark}] {self.fault}"
                + (f" [{self.tenant}]" if self.tenant else "")
                + f": {tail}"
                + (f" — {self.detail}" if self.detail else ""))


def _earliest(candidates: List[tuple]) -> Optional[tuple]:
    return min(candidates, key=lambda item: item[0]) if candidates else None


def _audit_matches(events: Sequence[AuditEvent], kinds: Sequence[str],
                   at: float, subject: Optional[str] = None) -> List[tuple]:
    matches = []
    for event in events:
        if event.kind not in kinds or event.time < at:
            continue
        if subject is not None and event.subject != subject:
            continue
        matches.append((event.time, f"audit:{event.kind}",
                        event.detail))
    return matches


def _alert_matches(alerts: Sequence[Alert], at: float,
                   tenant: Optional[str] = None) -> List[tuple]:
    matches = []
    for alert in alerts:
        if alert.firing_at < at:
            continue
        if tenant is not None and alert.tenant != tenant:
            continue
        matches.append((alert.firing_at,
                        f"alert:{alert.rule}[{alert.tenant}]",
                        alert.cause))
    return matches


def match_detections(faults: Sequence, events: Sequence[AuditEvent],
                     alerts: Sequence[Alert],
                     bound: float) -> List[DetectionCheck]:
    """One :class:`DetectionCheck` per *fired* fault.

    *events* must already be scoped past the campaign's pre-chaos audit
    watermark (``AuditLog.events_since``).
    """
    checks: List[DetectionCheck] = []
    for fault in faults:
        if not fault.fired:
            continue
        kind = fault.kind
        at = fault.at
        tenant = fault.tenant or ""
        candidates: List[tuple] = []
        if kind in ("session_kill", "dma_redirect", "aead_tamper"):
            # A killed session, redirected DMA or tampered frame surfaces
            # on the targeted tenant: sealed-path failures (AEAD open
            # fails, the session is gone, or the enclave rejects the
            # request), then a recovery epoch bump.
            candidates += _audit_matches(
                events, ("serve.fault_detected", "serve.session_recovered"),
                at, subject=fault.tenant)
        elif kind == "gpu_reset":
            # Device loss hits whoever touches the device next; the
            # decisive evidence is the service restoration itself.
            candidates += _audit_matches(
                events, ("serve.service_restored",), at)
            candidates += _audit_matches(
                events, ("serve.fault_detected",
                         "serve.session_recovered"), at)
        elif kind in TELEMETRY_ONLY_KINDS:
            # No protocol error ever fires: only the SLO telemetry can
            # see an arbitration fault.  Starvation targets one tenant;
            # a storm degrades whoever is running, so any tenant's
            # alert counts.
            candidates += _alert_matches(
                alerts, at,
                tenant=fault.tenant if kind == "starvation" else None)
        else:
            # Unknown kind: accept any audit evidence naming the tenant,
            # so new fault types fail loudly (no evidence) rather than
            # silently passing.
            candidates += _audit_matches(
                events, ("serve.fault_detected", "serve.session_recovered",
                         "serve.service_restored"), at,
                subject=fault.tenant)
        hit = _earliest(candidates)
        if hit is None:
            checks.append(DetectionCheck(
                fault=fault.label, kind=kind, tenant=tenant,
                injected_at=at, detected_at=None, via="", bound=bound,
                ok=False, detail="no matching alert or audit event"))
            continue
        detected_at, via, detail = hit
        latency = detected_at - at
        checks.append(DetectionCheck(
            fault=fault.label, kind=kind, tenant=tenant, injected_at=at,
            detected_at=detected_at, via=via, bound=bound,
            ok=latency <= bound, detail=detail))
    return checks


def victim_latency_target(sampler: TimeSeriesSampler, tenant: str,
                          quantile: float = 0.99,
                          headroom: float = 1.5) -> Optional[float]:
    """Self-calibrating latency objective from the *baseline* run.

    The target is ``headroom`` times the worst latency the victim ever
    saw without faults: tight enough that a storm (~2.5x inflation) or
    a starvation window (adds its whole duration to one request's wait)
    pushes the windowed quantile over it, loose enough that ordinary
    scheduling jitter (including the extra load of abuse tenants) does
    not.  Returns ``None`` when the baseline recorded no latencies.
    """
    from repro.obs.slo import latency_series
    windows = sampler._observed.get(latency_series(tenant), {})
    worst: Optional[float] = None
    for accum in windows.values():
        if accum.max is not None and (worst is None or accum.max > worst):
            worst = accum.max
    if worst is None:
        return None
    return worst * headroom
