"""Victim request streams with verifiable secret-marked payloads.

A chaos campaign needs victims whose data can be *checked*, not just
timed.  Each victim round uploads a payload carrying a per-tenant
secret marker, reads it back, and only then runs a compute burst (the
memset would clobber the buffer, so verification reads come first).
After the run, :meth:`VictimPlan.checks` turns the echoed bytes into
security checks:

* **integrity** — a round whose upload and download both served under
  the *same* session epoch must echo the payload exactly;
* **cleanse** — a download served under a *later* epoch than its upload
  reads a freshly provisioned (cleansed) buffer, so the secret marker
  from the pre-fault upload must NOT appear in it (residual-memory
  protection across enclave churn, HIX Section 4.2's context cleanse).

The marker also feeds the campaign's trap-escape sweep: adversary trap
buffers must never contain any victim marker in plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.serve.engine import TenantClient
from repro.serve.queues import SERVED, ServeRequest

#: Prefix of every victim payload; campaign trap sweeps grep for it.
SECRET_PREFIX = b"CHAOS-SECRET:"


def secret_marker(tenant: str) -> bytes:
    return SECRET_PREFIX + tenant.encode("ascii")


def chain_recover(previous, recover):
    """An ``on_recover`` hook running *previous* (if any), then *recover*."""
    if previous is None:
        return recover

    def chained(api):
        previous(api)
        recover(api)

    return chained


@dataclass
class _Round:
    payload: bytes
    upload: ServeRequest
    download: ServeRequest


@dataclass
class VictimPlan:
    """One victim tenant's submitted stream plus its payload ledger."""

    tenant: str
    marker: bytes
    rounds: List[_Round] = field(default_factory=list)
    submitted: List[ServeRequest] = field(default_factory=list)

    def checks(self) -> List[tuple]:
        """Post-run (name, subject, ok, detail) integrity/cleanse checks."""
        results: List[tuple] = []
        for index, round_ in enumerate(self.rounds):
            download = round_.download
            if download.outcome != SERVED or download.result is None:
                continue
            echoed = bytes(download.result)
            upload = round_.upload
            same_epoch = (upload.outcome == SERVED
                          and upload.session_epoch == download.session_epoch)
            if same_epoch:
                ok = echoed == round_.payload
                results.append(
                    ("victim.integrity", f"{self.tenant}[{index}]", ok,
                     "payload echoed exactly" if ok else
                     "download does not match the uploaded payload"))
            else:
                # The upload's bytes died with the old enclave context;
                # whatever the fresh buffer holds must not leak them.
                ok = self.marker not in echoed
                results.append(
                    ("victim.cleanse", f"{self.tenant}[{index}]", ok,
                     "no residual secret across session epochs" if ok else
                     "pre-fault secret visible after re-establishment"))
        return results

    def goodput(self) -> float:
        """Fraction of submitted requests that ended up served."""
        if not self.submitted:
            return 1.0
        served = sum(1 for request in self.submitted
                     if request.outcome == SERVED)
        return served / len(self.submitted)


def submit_victim_stream(client: TenantClient, rounds: int = 4,
                         chunk_bytes: int = 4096,
                         compute_seconds: float = 2e-4,
                         seed: int = 0) -> VictimPlan:
    """Queue a verifiable round-trip stream on *client*.

    Each round is upload → download → launch; payloads are marker-
    prefixed deterministic bytes, distinct per round and per seed, so a
    swap or replay of one round's ciphertext cannot silently satisfy
    another round's check.
    """
    marker = secret_marker(client.name)
    plan = VictimPlan(tenant=client.name, marker=marker)
    rng = np.random.default_rng((seed << 8) ^ len(client.name))
    nbytes = max(chunk_bytes, len(marker) + 16)
    nbytes += (-nbytes) % 4
    state: Dict[str, object] = {}

    def setup(api, nbytes: int = nbytes):
        state["dptr"] = api.cuMemAlloc(nbytes)
        state["module"] = api.cuModuleLoad(["builtin.memset32"])

    plan.submitted.append(client.submit(f"{client.name}:setup", setup))

    for index in range(rounds):
        noise = rng.integers(0, 256, size=nbytes - len(marker),
                             dtype=np.uint8).tobytes()
        payload = marker + noise

        def upload(api, payload=payload):
            api.cuMemcpyHtoD(state["dptr"], payload)

        def download(api, nbytes=nbytes):
            return api.cuMemcpyDtoH(state["dptr"], nbytes)

        def launch(api, hint=compute_seconds):
            api.cuLaunchKernel(state["module"], "builtin.memset32",
                               [state["dptr"], 16, 0x7E57],
                               compute_seconds=hint)

        up = client.submit(f"{client.name}:h2d[{index}]", upload)
        down = client.submit(f"{client.name}:d2h[{index}]", download)
        plan.submitted.extend([up, down])
        plan.rounds.append(_Round(payload=payload, upload=up, download=down))
        plan.submitted.append(
            client.submit(f"{client.name}:launch[{index}]", launch))

    def cleanup(api):
        api.cuMemFree(state["dptr"])

    plan.submitted.append(client.submit(f"{client.name}:cleanup", cleanup))

    # Recovery re-provisions exactly what setup allocated.
    client.on_recover = chain_recover(client.on_recover, setup)
    return plan
