"""FaultInjector: schedule fault scripts onto a serving run's clock.

The serving engine's :meth:`ServeEngine.run` accepts a pre-built
:class:`~repro.sim.engine.EventClock`; the injector builds one, books
every point fault as a kernel event at its virtual fire time, wires
window faults (storms, starvation) into an
:class:`~repro.chaos.faults.AdversarialArbitration` wrapper around the
engine's scheduler, and hands the kernel to the run.  With an empty
fault list nothing is scheduled and no wrapper is installed — the
chaos layer is then bit-for-bit invisible (pinned by
``tests/property/test_prop_chaos_noop.py``).

Fault firings are observable: each increments ``chaos.faults_injected``
and ``chaos.fault.<kind>`` in the metrics registry, appends a
``chaos.injected`` ground-truth record to the security audit log (the
reference the detection verdict measures latency against — never
evidence of detection itself), and, when the span tracer is active,
drops a zero-duration ``chaos.<kind>`` marker event at the fire time so
exported traces show exactly when the world broke.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.chaos.faults import (
    AdversarialArbitration,
    ChaosContext,
    Fault,
    SchedulerStormFault,
    StarvationFault,
)
from repro.obs import metrics as obs_metrics
from repro.obs.audit import audit_log
from repro.obs.tracer import STATE as _OBS
from repro.sim.engine import EventClock


class FaultInjector:
    """Compose a fault script with one serving run."""

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self.faults: List[Fault] = list(faults)
        self.arbitration: Optional[AdversarialArbitration] = None

    def attach(self, engine,
               kernel: Optional[EventClock] = None) -> EventClock:
        """Schedule every fault onto the run's kernel.

        Builds a fresh :class:`EventClock` unless *kernel* is given —
        campaigns pass their fleet's shared clock so per-machine
        injectors all book their faults on the one timeline it runs on.
        """
        if kernel is None:
            kernel = EventClock()
        ctx = ChaosContext(engine)
        lane_of = {client.name: index
                   for index, client in enumerate(engine.clients)}

        window_faults = [fault for fault in self.faults
                         if isinstance(fault, (SchedulerStormFault,
                                               StarvationFault))]
        if window_faults:
            # Installed once; left in place for the whole run.  The
            # wrapper delegates verbatim outside its windows.
            self.arbitration = AdversarialArbitration(engine.scheduler)
            for fault in window_faults:
                if isinstance(fault, SchedulerStormFault):
                    self.arbitration.add_storm(fault.at, fault.duration)
                else:
                    self.arbitration.add_starvation(
                        fault.at, fault.duration, lane_of[fault.tenant])
            engine.scheduler = self.arbitration

        registry = obs_metrics.registry()
        for fault in self.faults:
            def fire(event, fault: Fault = fault) -> None:
                fault.fired = True
                fault.apply(ctx)
                registry.counter("chaos.faults_injected").inc()
                registry.counter(f"chaos.fault.{fault.kind}").inc()
                audit_log().record(
                    "chaos.injected", fault.tenant or "machine",
                    time=event.time, ok=False, detail=fault.label,
                    fault_kind=fault.kind)
                tracer = _OBS.tracer
                if tracer is not None:
                    tracer.event(f"chaos.{fault.kind}", "chaos",
                                 event.time, 0.0, fault=fault.label,
                                 tenant=fault.tenant or "",
                                 detail=fault.detail)

            kernel.schedule(fault.at, fire)
        return kernel

    def run(self, engine):
        """Attach to *engine* and execute the run under injection."""
        kernel = self.attach(engine)
        return engine.run(kernel=kernel)

    def verify(self, engine) -> List[tuple]:
        """Collect every fired fault's post-run security checks."""
        ctx = ChaosContext(engine)
        checks: List[tuple] = []
        for fault in self.faults:
            if fault.fired:
                checks.extend(fault.verify(ctx))
        return checks
