"""The service front-end: auth, admission, quotas, drain, dispatch,
observability."""

import contextvars
import sys
import threading
import time

import pytest

from repro.core.client import VeriDBClient
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.portal import AuthenticatedQuery
from repro.crypto.mac import MessageAuthenticator
from repro.errors import (
    AuthenticationError,
    ResponseLost,
    ServiceDraining,
    ServiceOverloaded,
    TenantQuotaExceeded,
    TenantRateLimited,
    UnknownTenant,
)
from repro.faults import sites
from repro.faults.plane import ChaosPlane, scoped_fault_plane
from repro.faults.schedule import ChaosSchedule
from repro.obs import (
    NULL_REGISTRY,
    JsonlEventSink,
    MetricsRegistry,
    default_event_sink,
    default_registry,
    render_prometheus,
    scoped_event_sink,
    scoped_registry,
)
from repro.obs.promlint import lint_prometheus
from repro.obs.trace_context import TraceContext, current_trace
from repro.service import QueryService, ServiceConfig, TenantQuota
from repro.sql import params


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def build_db(seed=11):
    db = VeriDB(VeriDBConfig(key_seed=seed))
    db.sql("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
    for i in range(10):
        db.sql(f"INSERT INTO kv VALUES ({i}, {i * 10})")
    return db


@pytest.fixture
def registry():
    with scoped_registry(MetricsRegistry()) as reg:
        yield reg


@pytest.fixture
def service(registry):
    svc = QueryService(build_db(), ServiceConfig(max_workers=4), registry=registry)
    yield svc
    svc.close()


# ----------------------------------------------------------------------
# the happy path
# ----------------------------------------------------------------------
def test_tenant_client_round_trip(service):
    client = service.connect(service.register_tenant("acme"))
    result = client.execute("SELECT v FROM kv WHERE k = 3")
    assert result.rows == ((30,),)
    assert result.verified
    assert service.tenant("acme").in_flight == 0


def test_two_tenants_are_isolated_clients(service):
    a = service.connect(service.register_tenant("acme"))
    b = service.connect(service.register_tenant("globex"))
    assert a.execute("SELECT COUNT(*) FROM kv").rows == ((10,),)
    assert b.execute("SELECT COUNT(*) FROM kv").rows == ((10,),)
    # both audits advanced independently
    assert a.queries_verified == 1 and b.queries_verified == 1


def test_per_tenant_counters_and_stats(service, registry):
    creds = service.register_tenant("acme")
    client = service.connect(creds)
    for _ in range(3):
        client.execute("SELECT COUNT(*) FROM kv")
    series = registry.counter("service.tenant.queries", labels={"tenant": "acme"})
    assert series.value == 3
    assert 'service.tenant.queries{tenant="acme"}' in registry.snapshot()
    stats = service.stats()
    assert stats["tenants"] == ["acme"]
    assert stats["completed"] == 3
    assert stats["in_flight"] == 0
    # a tenant id is a label value, so any id renders as a valid series
    service.register_tenant("bad-name.co")
    assert lint_prometheus(render_prometheus(registry)) == []


def test_stats_count_without_a_registry():
    """``stats()`` counts what the service did, whether or not a
    registry records: the default one records nothing."""
    clock = FakeClock()
    with scoped_registry(NULL_REGISTRY):
        svc = QueryService(build_db(), ServiceConfig(max_workers=2), clock=clock)
    creds = svc.register_tenant("a", quota=TenantQuota(rate_per_second=1.0, burst=3))
    client = svc.connect(creds)
    for _ in range(3):
        client.execute("SELECT COUNT(*) FROM kv")
    with pytest.raises(TenantRateLimited):
        client.execute("SELECT COUNT(*) FROM kv")
    stats = svc.stats()
    assert svc.tenant("a").admitted == 3
    assert (stats["admitted"], stats["completed"]) == (3, 3)
    assert stats["rejected"] == {
        "rate_limited": 1,
        "quota": 0,
        "overload": 0,
        "draining": 0,
    }
    assert svc.close()


# ----------------------------------------------------------------------
# authentication layers
# ----------------------------------------------------------------------
def test_unknown_api_key_typed_rejection(service, registry):
    query = AuthenticatedQuery(qid=b"q" * 16, sql="SELECT 1", mac=b"m" * 32)
    with pytest.raises(UnknownTenant):
        service.submit("not-a-key", query)
    assert registry.counter("service.auth_failures").value == 1


def test_cross_tenant_mac_forgery_rejected(service):
    """Tenant A's MAC key must not authenticate queries as tenant B."""
    a = service.register_tenant("acme")
    b = service.register_tenant("globex")
    sql = "SELECT COUNT(*) FROM kv"
    qid = b"x" * 16
    mac_under_a = MessageAuthenticator(a.mac_key).tag(qid, sql.encode())
    forged = AuthenticatedQuery(
        qid=qid, sql=sql, mac=mac_under_a, tenant="globex"
    )
    # the untrusted front-end routes it (B's api key), but the enclave
    # checks the MAC under B's key and refuses
    with pytest.raises(AuthenticationError):
        service.submit(b.api_key, forged)


def test_unregistered_tenant_name_rejected_by_portal(service):
    creds = service.register_tenant("acme")
    sql = "SELECT 1"
    qid = b"y" * 16
    mac = MessageAuthenticator(creds.mac_key).tag(qid, sql.encode())
    ghost = AuthenticatedQuery(qid=qid, sql=sql, mac=mac, tenant="nobody")
    with pytest.raises(AuthenticationError):
        service.submit(creds.api_key, ghost)


def test_duplicate_tenant_registration_rejected(service):
    service.register_tenant("acme")
    with pytest.raises(AuthenticationError):
        service.db.portal.register_tenant_key("acme", b"z" * 32)
    # the portal refuses first: the attested key is not replaceable
    with pytest.raises(AuthenticationError):
        service.register_tenant("acme", api_key="another")


# ----------------------------------------------------------------------
# admission control and backpressure
# ----------------------------------------------------------------------
def _gate_runs(service):
    """Block every worker in _run until the returned event is set."""
    release = threading.Event()
    original = service._run

    def gated(tenant, query, admitted_at):
        release.wait(timeout=10)
        return original(tenant, query, admitted_at)

    service._run = gated
    return release


def _query_for(service, creds, sql="SELECT COUNT(*) FROM kv", qid=None):
    qid = qid if qid is not None else b"a" * 16
    mac = MessageAuthenticator(creds.mac_key).tag(qid, sql.encode())
    return AuthenticatedQuery(qid=qid, sql=sql, mac=mac, tenant=creds.tenant_id)


def test_global_admission_rejects_typed(registry):
    svc = QueryService(
        build_db(),
        ServiceConfig(max_in_flight=1, max_workers=1),
        registry=registry,
    )
    creds = svc.register_tenant("acme")
    release = _gate_runs(svc)
    first = svc.submit_async(creds.api_key, _query_for(svc, creds, qid=b"1" * 16))
    with pytest.raises(ServiceOverloaded):
        svc.submit(creds.api_key, _query_for(svc, creds, qid=b"2" * 16))
    assert registry.counter("service.rejected_overload").value == 1
    release.set()
    assert first.result(timeout=10).rowcount == 1
    assert svc.close()


def test_tenant_quota_rejects_typed(registry):
    svc = QueryService(
        build_db(),
        ServiceConfig(max_in_flight=16, max_workers=4),
        registry=registry,
    )
    creds = svc.register_tenant("acme", quota=TenantQuota(max_in_flight=1))
    release = _gate_runs(svc)
    first = svc.submit_async(creds.api_key, _query_for(svc, creds, qid=b"1" * 16))
    with pytest.raises(TenantQuotaExceeded):
        svc.submit(creds.api_key, _query_for(svc, creds, qid=b"2" * 16))
    assert registry.counter("service.rejected_quota").value == 1
    assert svc.tenant("acme").rejected == 1
    release.set()
    first.result(timeout=10)
    assert svc.close()


def test_rate_limit_rejects_and_refills(registry):
    clock = FakeClock()
    svc = QueryService(
        build_db(), ServiceConfig(max_workers=2), registry=registry, clock=clock
    )
    creds = svc.register_tenant(
        "acme", quota=TenantQuota(rate_per_second=1.0, burst=2)
    )
    client = svc.connect(creds)
    client.execute("SELECT COUNT(*) FROM kv")
    client.execute("SELECT COUNT(*) FROM kv")
    with pytest.raises(TenantRateLimited):
        client.execute("SELECT COUNT(*) FROM kv")
    assert registry.counter("service.rejected_rate_limited").value == 1
    clock.advance(1.0)
    assert client.execute("SELECT COUNT(*) FROM kv").rowcount == 1
    assert svc.close()


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
def test_drain_waits_for_in_flight_then_rejects_new(registry):
    svc = QueryService(build_db(), ServiceConfig(max_workers=2), registry=registry)
    creds = svc.register_tenant("acme")
    release = _gate_runs(svc)
    inflight = svc.submit_async(creds.api_key, _query_for(svc, creds, qid=b"1" * 16))

    drained = []
    drainer = threading.Thread(target=lambda: drained.append(svc.drain()))
    drainer.start()
    # wait for the drain flag, then prove new work is refused while the
    # admitted query still runs to completion
    for _ in range(100):
        if svc.draining:
            break
        threading.Event().wait(0.01)
    assert svc.draining
    with pytest.raises(ServiceDraining):
        svc.submit(creds.api_key, _query_for(svc, creds, qid=b"2" * 16))
    release.set()
    drainer.join(timeout=10)
    assert drained == [True]
    assert inflight.result(timeout=10).rowcount == 1
    assert registry.counter("service.rejected_draining").value == 1
    svc.close()


def test_close_is_idempotent(service):
    assert service.close()
    assert service.close()


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_admit_and_reject_events_emitted(registry):
    with scoped_event_sink() as sink:
        svc = QueryService(build_db(), ServiceConfig(max_workers=2), registry=registry)
        creds = svc.register_tenant(
            "acme", quota=TenantQuota(rate_per_second=0.001, burst=1)
        )
        client = svc.connect(creds)
        client.execute("SELECT COUNT(*) FROM kv")
        with pytest.raises(TenantRateLimited):
            client.execute("SELECT COUNT(*) FROM kv")
        svc.drain()
        admits = sink.events_of("service_admit")
        rejects = sink.events_of("service_reject")
        drains = sink.events_of("service_drain")
        assert len(admits) == 1 and admits[0]["tenant"] == "acme"
        assert len(rejects) == 1 and rejects[0]["reason"] == "rate_limited"
        assert len(drains) == 1
        svc.close()


def test_latency_histograms_populated(service, registry):
    client = service.connect(service.register_tenant("acme"))
    for _ in range(5):
        client.execute("SELECT COUNT(*) FROM kv")
    snap = registry.snapshot()
    assert snap["service.latency_seconds"]["count"] == 5
    assert snap["service.queue_seconds"]["count"] == 5
    assert snap["service.execute_seconds"]["count"] == 5
    assert snap["service.in_flight"]["value"] == 0
    assert snap["service.tenants"]["value"] == 1


# ----------------------------------------------------------------------
# dispatch: the caller's thread when a slot is free, the pool otherwise
# ----------------------------------------------------------------------
class _Runs:
    """Wraps a service's ``_run``: which thread ran which query, in
    order of entry, and the most executions ever running at once."""

    def __init__(self, service):
        self.calls = []
        self.peak = 0
        self._active = 0
        self._lock = threading.Lock()
        self._original = service._run
        service._run = self._run

    def _run(self, tenant, query, admitted_at):
        with self._lock:
            self.calls.append((threading.get_ident(), query))
            self._active += 1
            self.peak = max(self.peak, self._active)
        try:
            return self._original(tenant, query, admitted_at)
        finally:
            with self._lock:
                self._active -= 1

    @property
    def threads(self):
        return {ident for ident, _ in self.calls}


def _pooled_client(service, creds):
    """A verifying client whose every query goes through the pool."""
    return VeriDBClient(
        lambda query: service.submit_async(creds.api_key, query).result(),
        creds.mac_key,
        name=creds.tenant_id,
        tenant=creds.tenant_id,
    )


def _outcome_counts(registry):
    """Every counter, plus every histogram's observation count."""
    return {
        key: data["value"] if data["type"] == "counter" else data["count"]
        for key, data in registry.snapshot().items()
        if data["type"] in ("counter", "histogram")
    }


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _run_script(pooled: bool):
    """One fixed script of accepted and rejected queries; its counts."""
    with scoped_registry(MetricsRegistry()) as registry:
        svc = QueryService(
            build_db(), ServiceConfig(max_workers=2), registry=registry
        )
        creds = svc.register_tenant("acme")
        other = svc.register_tenant("globex")
        runs = _Runs(svc)
        connect = (lambda c: _pooled_client(svc, c)) if pooled else svc.connect
        client, client2 = connect(creds), connect(other)
        for k in range(3):
            assert client.execute(f"SELECT v FROM kv WHERE k = {k}").rows == (
                (k * 10,),
            )
        client2.execute("SELECT COUNT(*) FROM kv")
        with pytest.raises(UnknownTenant):
            svc.submit("no-such-key", _query_for(svc, creds, qid=b"u" * 16))
        assert svc.close()
    return runs, _outcome_counts(registry)


def test_idle_submit_runs_on_the_callers_thread_and_counts_like_the_pool():
    inline_runs, inline_counts = _run_script(pooled=False)
    pooled_runs, pooled_counts = _run_script(pooled=True)
    me = threading.get_ident()
    assert len(inline_runs.calls) == 4
    assert inline_runs.threads == {me}
    assert me not in pooled_runs.threads
    assert [q.sql for _, q in inline_runs.calls] == [
        q.sql for _, q in pooled_runs.calls
    ]
    assert inline_counts == pooled_counts
    assert inline_counts["service.requests"] == 5
    assert inline_counts["service.admitted"] == 4
    assert inline_counts["service.completed"] == 4
    assert inline_counts["service.auth_failures"] == 1
    assert inline_counts['service.tenant.queries{tenant="acme"}'] == 3
    assert inline_counts['service.tenant.queries{tenant="globex"}'] == 1
    # queue, execute and end-to-end latency are observed on both paths
    for name in ("queue", "execute", "latency"):
        assert inline_counts[f"service.{name}_seconds"] == 4


def _poison_clocks(monkeypatch):
    """Make every ``perf_counter`` a query can reach raise."""

    def no_clock():
        raise AssertionError("clock read with no registry recording")

    original = time.perf_counter
    monkeypatch.setattr(time, "perf_counter", no_clock)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "perf_counter", None) is original:
            monkeypatch.setattr(module, "perf_counter", no_clock)


def test_dark_serving_path_reads_no_clock(monkeypatch):
    """Under the null registry nothing on the serving path reads a clock
    only to feed no-op histograms: the inline and the pooled dispatch,
    and the portal behind the plain ECall transport."""
    svc = QueryService(build_db(), ServiceConfig(max_workers=2))
    try:
        creds = svc.register_tenant("acme")
        clients = (svc.connect(creds), _pooled_client(svc, creds), svc.db.connect())
        _poison_clocks(monkeypatch)
        for n, client in enumerate(clients):
            point = client.execute("SELECT v FROM kv WHERE k = ?", params=(n,))
            assert point.rows == ((n * 10,),)
            update = client.execute("UPDATE kv SET v = ? WHERE k = ?", params=(n, n))
            assert update.rowcount == 1
    finally:
        monkeypatch.undo()
        svc.close()


def test_inline_execution_sees_none_of_the_callers_context(service, registry):
    client = service.connect(service.register_tenant("acme"))
    seen = []
    original = service._run

    def peeking(tenant, query, admitted_at):
        seen.append(
            (
                threading.get_ident(),
                current_trace(),
                params._ACTIVE.get(),
                default_registry(),
                default_event_sink(),
            )
        )
        return original(tenant, query, admitted_at)

    service._run = peeking
    process_defaults = contextvars.Context().run(
        lambda: (default_registry(), default_event_sink())
    )
    token = params.bind((1, 2))
    with scoped_event_sink() as sink, TraceContext(qid="caller"):
        assert default_registry() is registry
        assert default_event_sink() is sink
        client.execute("SELECT v FROM kv WHERE k = 3")
    params.unbind(token)
    ident, trace, bound, inner_registry, inner_sink = seen[0]
    assert ident == threading.get_ident()
    assert (trace, bound) == (None, None)
    assert (inner_registry, inner_sink) == process_defaults
    assert sink.events_of("service_admit")  # admission is the caller's


class _HeldSlots:
    """The service's slot semaphore, except that a *blocking* acquire
    (a pool thread asking for a slot) first waits for ``let_pool_in``."""

    def __init__(self, slots):
        self._slots = slots
        self.let_pool_in = threading.Event()

    def acquire(self, blocking=True):
        return self._slots.acquire(blocking)

    def release(self):
        self._slots.release()

    def __enter__(self):
        assert self.let_pool_in.wait(timeout=10)
        return self._slots.__enter__()

    def __exit__(self, *exc):
        return self._slots.__exit__(*exc)


def test_queued_work_runs_before_a_new_blocking_arrival(registry):
    svc = QueryService(
        build_db(),
        ServiceConfig(max_in_flight=2, max_workers=1),
        registry=registry,
    )
    creds = svc.register_tenant("acme")
    release = _gate_runs(svc)
    runs = _Runs(svc)
    held = svc._slots = _HeldSlots(svc._slots)
    answered = []

    def blocking(tag):
        svc.submit(creds.api_key, _query_for(svc, creds, qid=tag * 16))
        answered.append(tag)

    def order():
        return [q.qid[:1] for _, q in runs.calls]

    # A: an idle service runs it on the caller's thread, parked at the gate
    first = threading.Thread(target=blocking, args=(b"A",))
    first.start()
    _wait_until(lambda: runs.calls)
    # B: queued on the pool, waiting for A's slot
    queued = svc.submit_async(creds.api_key, _query_for(svc, creds, qid=b"B" * 16))
    # max_in_flight still bounds admission across both paths
    with pytest.raises(ServiceOverloaded):
        svc.submit(creds.api_key, _query_for(svc, creds, qid=b"X" * 16))
    release.set()
    first.join(timeout=10)
    assert not first.is_alive()
    # C arrives after the gate opened: A's slot is free, but B has been
    # waiting for it, so C queues behind B instead of running inline
    late = threading.Thread(target=blocking, args=(b"C",))
    late.start()
    _wait_until(lambda: svc._queued == 2)
    assert order() == [b"A"]
    held.let_pool_in.set()
    late.join(timeout=10)
    assert not late.is_alive()
    assert queued.result(timeout=10).rowcount == 1
    assert order() == [b"A", b"B", b"C"]
    assert runs.calls[0][0] == first.ident
    assert runs.peak == 1
    assert answered == [b"A", b"C"]
    assert registry.counter("service.rejected_overload").value == 1
    assert registry.counter("service.completed").value == 3
    assert svc.close()


def test_concurrency_never_exceeds_max_workers(registry):
    """Inline and pooled executions share one bound, under contention."""
    max_workers = 2
    svc = QueryService(
        build_db(),
        ServiceConfig(max_in_flight=64, max_workers=max_workers),
        registry=registry,
    )
    creds = svc.register_tenant("acme")
    original = svc._run

    def slow(tenant, query, admitted_at):
        time.sleep(0.0005)
        return original(tenant, query, admitted_at)

    svc._run = slow
    runs = _Runs(svc)
    errors = []

    def caller(n):
        client = svc.connect(creds, name=f"c{n}")
        pooled = _pooled_client(svc, creds)
        try:
            for i in range(15):
                (pooled if (i + n) % 3 == 2 else client).execute(
                    f"SELECT v FROM kv WHERE k = {i % 10}"
                )
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(n,)) for n in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert 1 <= runs.peak <= max_workers
    assert registry.counter("service.completed").value == 90
    assert (svc.stats()["admitted"], svc.stats()["completed"]) == (90, 90)
    pool_threads = runs.threads - {t.ident for t in callers}
    assert len(pool_threads) <= max_workers
    assert svc.close()


def test_a_drain_is_a_pair_of_events(service):
    with scoped_event_sink(JsonlEventSink()) as sink:
        assert service.drain()
    drain, drained = [e for e in sink.events if e["type"].startswith("service_drain")]
    assert (drain["type"], drain["in_flight"]) == ("service_drain", 0)
    assert (drained["type"], drained["clean"]) == ("service_drained", True)


def test_drain_waits_for_an_inline_query(registry):
    svc = QueryService(build_db(), ServiceConfig(max_workers=2), registry=registry)
    creds = svc.register_tenant("acme")
    release = _gate_runs(svc)
    runs = _Runs(svc)
    answers = []
    inline = threading.Thread(
        target=lambda: answers.append(
            svc.submit(creds.api_key, _query_for(svc, creds, qid=b"1" * 16))
        )
    )
    inline.start()
    _wait_until(lambda: runs.calls)
    assert runs.threads == {inline.ident}
    drained = []
    drainer = threading.Thread(target=lambda: drained.append(svc.drain()))
    drainer.start()
    _wait_until(lambda: svc.draining)
    drainer.join(timeout=0.2)
    assert drainer.is_alive() and drained == []
    release.set()
    drainer.join(timeout=10)
    inline.join(timeout=10)
    assert not drainer.is_alive() and not inline.is_alive()
    assert drained == [True]
    assert answers[0].rowcount == 1
    assert registry.counter("service.completed").value == 1
    svc.close()


def _fault_script(site, pooled: bool):
    schedule = ChaosSchedule(seed=5, rates={site: 1.0}, limit_per_site=1)
    with scoped_registry(MetricsRegistry()) as registry, scoped_fault_plane(
        ChaosPlane(schedule, registry=registry)
    ):
        db = build_db()
        svc = QueryService(db, ServiceConfig(max_workers=2), registry=registry)
        creds = svc.register_tenant("acme")
        runs = _Runs(svc)
        client = _pooled_client(svc, creds) if pooled else svc.connect(creds)
        outcome = None
        try:
            client.execute("SELECT v FROM kv WHERE k = 2")
        except ResponseLost as exc:
            outcome = exc
        seen = db.portal.seen_query_count()
        assert svc.close()
    return runs, outcome, seen, _outcome_counts(registry)


@pytest.mark.parametrize(
    "site", [sites.SERVICE_DISPATCH_ABORT, sites.SERVICE_RESPONSE_LOST]
)
def test_service_fault_sites_on_the_inline_path(site):
    runs, outcome, seen, counts = _fault_script(site, pooled=False)
    _, pooled_outcome, pooled_seen, pooled_counts = _fault_script(site, pooled=True)
    assert runs.threads == {threading.get_ident()}
    assert counts == pooled_counts
    assert seen == pooled_seen == 1
    # the client resubmitted the same qid once
    assert counts["service.admitted"] == 2
    assert counts["client.submit_retries"] == 1
    if site == sites.SERVICE_DISPATCH_ABORT:
        # the qid was never burned, so the retry is its first execution
        assert outcome is None and pooled_outcome is None
        assert counts["service.execute_errors"] == 1
        assert counts["service.completed"] == 1
        assert counts.get("portal.replays_rejected", 0) == 0
    else:
        assert isinstance(outcome, ResponseLost)
        assert isinstance(pooled_outcome, ResponseLost)
        assert counts["service.responses_lost"] == 1
        assert counts["service.execute_errors"] == 2
        assert counts["portal.replays_rejected"] == 1


def test_a_cancelled_pooled_query_stops_holding_back_inline_dispatch(registry):
    svc = QueryService(build_db(), ServiceConfig(max_workers=1), registry=registry)
    creds = svc.register_tenant("acme")
    release = _gate_runs(svc)
    runs = _Runs(svc)
    running = svc.submit_async(creds.api_key, _query_for(svc, creds, qid=b"1" * 16))
    _wait_until(lambda: runs.calls)
    # the pool's one thread is busy, so this one is still cancellable
    waiting = svc.submit_async(creds.api_key, _query_for(svc, creds, qid=b"2" * 16))
    assert waiting.cancel()
    release.set()
    assert running.result(timeout=10).rowcount == 1
    assert svc._queued == 0
    svc.submit(creds.api_key, _query_for(svc, creds, qid=b"3" * 16))
    assert runs.calls[-1][0] == threading.get_ident()
    assert registry.counter("service.execute_errors").value == 1
    assert registry.counter("service.completed").value == 2
    assert svc.close()
