"""Request-lifecycle pin for the serving engine.

``golden/serve_lifecycle.json`` pins, for both TEE backends, how every
request of a serve run settles and what the run wrote about it:

* for every chaos campaign in :func:`campaign_catalog` at seed 0 —
  each engine the run finished (baseline and chaos, in finish order),
  each request's ``(tenant, label, outcome, error_kind, attempts,
  session_epoch)``; the run's audit events as ``(kind, subject, time,
  ok, error_kind, detail)``; the fired alerts; the rendered verdict
  (security checks, fairness numbers, detection latencies); and each
  report's ``(name, served, submitted, finish_time)`` tenant rows;
* a set of small serve runs that reach the outcomes the campaigns never
  do at seed 0 — quota denial, channel backpressure, enclave failure,
  breaker shed, a memo-hit request whose deferred execution fails at
  flush, and a retry racing a timeout — each with its requests, audit
  events and the windowed telemetry series (``TimeSeriesSampler.to_dict``);
* the telemetry series of one ordinary two-tenant serve run.

Everything is compared with ``==``: a change to where, when or how a
request settles is a behavioural change, not noise.  Regenerate (only
on a deliberate behaviour change) with
``PYTHONPATH=src python tests/property/test_prop_lifecycle.py``.
"""

import contextlib
import json
import pathlib
import sys

import pytest

from repro.chaos.campaign import campaign_catalog, run_campaign
from repro.errors import IntegrityError, QueueFullError, RequestRejected
from repro.evalkit.serve_sweep import SWEEP_QUOTA
from repro.obs.audit import audit_log
from repro.obs.timeseries import TimeSeriesSampler
from repro.serve import BreakerConfig, RetryPolicy, ServeEngine, TenantQuota
from repro.serve.jobs import submit_workload
from repro.system import Machine, MachineConfig
from repro.workloads import MatrixAdd
from repro.workloads.base import Workload

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "serve_lifecycle.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}

BACKENDS = ("hix", "gpucc")

#: Outcomes the pin must contain somewhere, so it cannot pass vacuously.
REQUIRED_OUTCOMES = {"served", "timeout", "denied", "backpressure",
                     "failed", "shed"}


@contextlib.contextmanager
def _finished_engines():
    """Collect every :class:`ServeEngine` whose run finishes inside."""
    engines = []
    original = ServeEngine.finish

    def finish(self):
        report = original(self)
        engines.append(self)
        return report

    ServeEngine.finish = finish
    try:
        yield engines
    finally:
        ServeEngine.finish = original


def _requests(engines):
    return [[[client.name, request.label, request.outcome,
              request.error_kind, request.attempts, request.session_epoch]
             for client in engine.clients for request in client.requests]
            for engine in engines]


def _audit(events):
    return [[event.kind, event.subject, event.time, event.ok,
             event.attrs.get("error_kind"), event.detail]
            for event in events]


def _tenant_rows(report):
    return [[row.name, row.served, row.submitted, row.finish_time]
            for row in report.tenants]


def _normalise(value):
    """JSON round trip, so tuples compare equal to the golden's lists."""
    return json.loads(json.dumps(value))


def _campaign_capture(name, backend):
    log = audit_log()
    mark = log.cursor()
    with _finished_engines() as engines:
        result = run_campaign(name, seed=0, backend=backend)
    return {"requests": _requests(engines),
            "audit": _audit(log.events_since(mark)),
            "alerts": [[alert.rule, alert.tenant, alert.firing_at,
                        alert.resolved_at, alert.cause, alert.detail]
                       for alert in result.alerts],
            "render": result.render(),
            "baseline": _tenant_rows(result.baseline),
            "chaos": _tenant_rows(result.chaos)}


# -- serve recipes that reach the rarer outcomes ------------------------------


class _SyntheticWorkload(Workload):
    """Phase profile only: enough GPU time per launch to contend."""

    def __init__(self):
        self.name = "synthetic"
        self.app_code = "SYN"
        self.modeled_h2d = 1 << 20
        self.modeled_d2h = 1 << 20
        self.n_launches = 4
        self.compute_seconds = 2e-3

    def run(self, api, inflation: float = 1.0) -> None:
        raise NotImplementedError


def _engine(backend, sampler, **kwargs):
    machine = Machine(MachineConfig(data_inflation=4096.0, backend=backend))
    kwargs.setdefault("scheduler", "fifo")
    return machine, ServeEngine(machine, telemetry=sampler, **kwargs)


def _kernel_state(api, state, compute_seconds=1e-3):
    if "module" not in state:
        state["dptr"] = api.cuMemAlloc(4096)
        state["module"] = api.cuModuleLoad(["builtin.memset32"])
    api.cuLaunchKernel(state["module"], "builtin.memset32",
                       [state["dptr"], 64, 1],
                       compute_seconds=compute_seconds)


def _recipe_error_kinds(backend, sampler):
    """Served, enclave rejection, tamper, channel backpressure and an
    allocation over the tenant's device-memory budget, no retries."""
    _, engine = _engine(backend, sampler)
    client = engine.add_tenant(
        "t", TenantQuota(device_memory_bytes=1 << 20))
    state = {}

    def rejected(api):
        raise RequestRejected("bad request", "EINVAL")

    def crypto(api):
        raise IntegrityError("tag mismatch")

    def overflow(api):
        raise QueueFullError("channel queue full")

    def greedy(api):
        api.cuMemAlloc(4 << 20)

    client.submit("launch", lambda api: _kernel_state(api, state))
    client.submit("rejected", rejected)
    client.submit("crypto", crypto)
    client.submit("overflow", overflow)
    client.submit("greedy", greedy)
    client.submit("host-only", lambda api: None)
    engine.run()
    return engine


def _recipe_retry(backend, sampler):
    """A launch that fails once and succeeds on retry, and a request
    whose retry budget runs out under persistent backpressure."""
    _, engine = _engine(backend, sampler,
                        retry_policy=RetryPolicy(max_attempts=2, jitter=0.0))
    client = engine.add_tenant("t")
    state = {}
    calls = {"n": 0}

    def flaky(api):
        calls["n"] += 1
        if calls["n"] == 1:
            raise QueueFullError("transient")
        _kernel_state(api, state)

    def doomed(api):
        raise QueueFullError("always full")

    client.submit("flaky", flaky)
    client.submit("doomed", doomed)
    client.submit("after", lambda api: _kernel_state(api, state))
    engine.run()
    return engine


def _recipe_breaker(backend, sampler):
    """Persistent enclave rejections trip the breaker; the rest shed."""
    _, engine = _engine(backend, sampler,
                        breaker=BreakerConfig(window=4,
                                              failure_threshold=0.5,
                                              cooldown=1.0))
    client = engine.add_tenant("t", TenantQuota(max_queue_depth=32))

    def doomed(api):
        raise RequestRejected("always", "EINVAL")

    for index in range(12):
        client.submit(f"r{index}", doomed)
    engine.run()
    return engine


def _recipe_admission(backend, sampler):
    """A second client of a one-context tenant is denied admission."""
    _, engine = _engine(backend, sampler)
    quota = TenantQuota(max_contexts=1)
    first = engine.add_tenant("t", quota)
    second = engine.add_tenant("t", quota)
    state = {}
    first.submit("launch", lambda api: _kernel_state(api, state))
    second.submit("a", lambda api: None)
    second.submit("b", lambda api: None)
    engine.run()
    return engine


def _recipe_deferred_flush(backend, sampler, retry):
    """Memo hits whose deferred execution fails when they are flushed.

    ``launch1``/``launch2`` charge ``launch0``'s memoized split; their
    functional work runs at the flush before ``tail``, where ``launch1``
    fails.  ``max_inflight`` lets the flush overtake their engine
    visits, so both settle orders occur.
    """
    _, engine = _engine(
        backend, sampler,
        retry_policy=(RetryPolicy(max_attempts=2, jitter=0.0)
                      if retry else None))
    client = engine.add_tenant("t", TenantQuota(max_inflight=4))
    state = {}
    calls = {"n": 0}

    def launch(api):
        _kernel_state(api, state)

    def flaky(api):
        calls["n"] += 1
        if calls["n"] == 1:
            raise IntegrityError("tag mismatch at flush")
        launch(api)

    client.submit("setup", lambda api: _kernel_state(api, state, 0.0))
    client.submit("launch0", launch, memo_key="launch")
    client.submit("launch1", flaky, memo_key="launch")
    client.submit("launch2", launch, memo_key="launch")
    client.submit("tail", launch)
    engine.run()
    return engine


def _recipe_timeout_race(backend, sampler):
    """A retried launch that times out behind a GPU hog."""
    _, engine = _engine(
        backend, sampler, max_tenants=3,
        retry_policy=RetryPolicy(max_attempts=3, jitter=0.0,
                                 base_delay=1e-4))
    hog = engine.add_tenant("hog", TenantQuota(max_queue_depth=8))
    hog_state = {}
    hog.submit("hog:setup", lambda api: _kernel_state(api, hog_state, 0.0))
    hog.submit("hog:launch",
               lambda api: _kernel_state(api, hog_state, 5e-3))
    victim = engine.add_tenant(
        "victim", TenantQuota(max_inflight=1, request_timeout=5e-4))
    state = {}
    calls = {"n": 0}

    def flaky(api):
        calls["n"] += 1
        if calls["n"] == 1:
            raise QueueFullError("transient backlog")
        _kernel_state(api, state, 2e-3)

    victim.submit("victim:setup", lambda api: _kernel_state(api, state, 0.0),
                  timeout=None)
    victim.submit("victim:flaky", flaky)
    engine.run()
    return engine


def _recipe_contended_timeouts(backend, sampler):
    """Three tenants contending under a tight timeout, fast path on:
    memo-hit visits and executed visits both expire."""
    machine, engine = _engine(backend, sampler, max_tenants=3)
    quota = TenantQuota(max_queue_depth=64, max_inflight=1,
                        request_timeout=4e-4)
    for index in range(3):
        client = engine.add_tenant(f"user{index}", quota)
        submit_workload(client, _SyntheticWorkload(), 4096.0, machine.costs,
                        seed=index)
    engine.run()
    return engine


def _recipe_serve(backend, sampler):
    """The ordinary two-tenant MatrixAdd serve run."""
    machine, engine = _engine(backend, sampler, scheduler="fair",
                              max_tenants=2, default_quota=SWEEP_QUOTA)
    for index in range(2):
        client = engine.add_tenant(f"user{index}")
        submit_workload(client, MatrixAdd(2048), 4096.0, machine.costs,
                        seed=index)
    engine.run()
    return engine


RECIPES = {
    "error-kinds": _recipe_error_kinds,
    "retry": _recipe_retry,
    "breaker": _recipe_breaker,
    "admission": _recipe_admission,
    "deferred-flush": lambda b, s: _recipe_deferred_flush(b, s, False),
    "deferred-flush-retry": lambda b, s: _recipe_deferred_flush(b, s, True),
    "timeout-race": _recipe_timeout_race,
    "contended-timeouts": _recipe_contended_timeouts,
    "serve": _recipe_serve,
}


def _recipe_capture(name, backend):
    log = audit_log()
    mark = log.cursor()
    sampler = TimeSeriesSampler()
    engine = RECIPES[name](backend, sampler)
    return {"requests": _requests([engine]),
            "audit": _audit(log.events_since(mark)),
            "telemetry": sampler.to_dict()}


def capture():
    """Everything ``serve_lifecycle.json`` pins, recomputed."""
    return _normalise({
        backend: {
            "campaigns:seed0": {name: _campaign_capture(name, backend)
                                for name in sorted(campaign_catalog())},
            "recipes": {name: _recipe_capture(name, backend)
                        for name in RECIPES},
        } for backend in BACKENDS})


def _outcomes(section):
    return {request[2] for engine in section["requests"]
            for request in engine}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(campaign_catalog()))
def test_campaign_lifecycle_matches_golden(backend, name):
    captured = _normalise(_campaign_capture(name, backend))
    assert captured == GOLDEN[backend]["campaigns:seed0"][name]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", list(RECIPES))
def test_recipe_lifecycle_matches_golden(backend, name):
    captured = _normalise(_recipe_capture(name, backend))
    assert captured == GOLDEN[backend]["recipes"][name]


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_is_not_vacuous(backend):
    """Every outcome, a deferred-flush failure and a successful retry of
    an executed GPU request appear in the pin."""
    pinned = GOLDEN[backend]
    sections = (list(pinned["campaigns:seed0"].values())
                + list(pinned["recipes"].values()))
    outcomes = set().union(*(_outcomes(section) for section in sections))
    assert REQUIRED_OUTCOMES <= outcomes
    details = [event[5] for section in sections for event in section["audit"]]
    assert any(detail.startswith("deferred flush failed")
               for detail in details)
    retried = [request for engine in pinned["recipes"]["retry"]["requests"]
               for request in engine if request[1] == "flaky"]
    assert retried == [["t", "flaky", "served", "queue_full", 2, 0]]
    assert pinned["recipes"]["serve"]["telemetry"]["marks"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
