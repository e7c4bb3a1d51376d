"""Fleet-tier chaos: the ``fleet-migration`` fault script.

The ``fleet-migration`` campaign proves the fleet's migration protocol
keeps the three-sided verdict while the world breaks around it:

* four victims spread over two machines (least-loaded placement lands
  two on each), every one submitting the verifiable secret-marked
  round-trip stream;
* one victim is drained off its machine mid-run and re-established on
  the other — full attestation + key exchange at the next session
  epoch, backlog moved, ``on_recover`` re-provisioning its buffers;
* a DMA-redirect trap fires on EACH machine (so the ciphertext-only
  sweep covers both isolation domains) and a GPU reset hits the source
  after the drain, forcing the remaining source victim through
  recovery as well.

Migration makes the epoch-aware half of
:meth:`~repro.chaos.workload.VictimPlan.checks` do real work: rounds
whose upload served on the source and whose download served on the
target span session epochs, so they must read the *cleansed* target
buffer — the pre-migration secret may not survive the move.  The
campaign itself is an ordinary entry of
:data:`~repro.chaos.campaign.CAMPAIGNS`; this module only books the
drain and builds the per-machine fault lists.
"""

from __future__ import annotations

from typing import Dict, List

from repro.chaos.faults import DmaRedirectFault, Fault, GpuResetFault
from repro.fleet import Fleet

#: Fault timings, virtual seconds, calibrated against the victim streams
#: at the campaign's inflation: with two tenants per machine the
#: interleaved session establishments occupy roughly the first 18.5 ms
#: of each machine's timeline, and the victim rounds then drain over
#: the following ~5 ms.  The traps arm just inside the live window;
#: the migration drain begins mid-rounds, so part of the victim's
#: stream serves on each machine and its spanning rounds exercise the
#: epoch-aware cleanse check; the reset hits the source after the
#: drain, pushing the remaining source victim through recovery too.
TRAP_SOURCE_AT = 19.3e-3
TRAP_TARGET_AT = 19.6e-3
MIGRATE_AT = 20.5e-3
RESET_AT = 21.5e-3
#: GPU-CC session establishment (cert-chain verification + the report
#: round trip) runs longer than HIX's, so the whole live window lands
#: later; every scripted time shifts by the same offset to stay inside
#: the live-session window under that backend.
BACKEND_SHIFT = {"hix": 0.0, "gpucc": 6.9e-3}


def fleet_migration_faults(fleet: Fleet, campaign) -> List[List[Fault]]:
    """Book victim0's drain; per-machine faults on non-migrating victims.

    The migrating victim is mid-drain when the faults land, so the
    targeted faults aim at a victim that *stays* on each machine —
    a fault against a session that already left would record "nothing
    to kill" and fail loudly, which is the wrong kind of loud here.
    """
    shift = BACKEND_SHIFT.get(campaign.backend, 0.0)
    victims = campaign.victim_names()
    migrating = victims[0]
    source = fleet.router.machine_of(migrating)
    assert source is not None
    target = 1 - source
    fleet.plan_migration(migrating, target=target, at=MIGRATE_AT + shift)
    by_machine: Dict[int, List[str]] = {0: [], 1: []}
    for name in victims:
        by_machine[fleet.router.machine_of(name)].append(name)
    stay_source = next(name for name in by_machine[source]
                       if name != migrating)
    script: List[List[Fault]] = [[], []]
    script[source] = [
        DmaRedirectFault(at=TRAP_SOURCE_AT + shift, tenant=stay_source),
        GpuResetFault(at=RESET_AT + shift),
    ]
    script[target] = [
        DmaRedirectFault(at=TRAP_TARGET_AT + shift,
                         tenant=by_machine[target][0]),
    ]
    return script
