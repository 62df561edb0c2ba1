"""The service front-end: auth, admission, quotas, drain, observability."""

import threading

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.portal import AuthenticatedQuery
from repro.crypto.mac import MessageAuthenticator
from repro.errors import (
    AuthenticationError,
    ServiceDraining,
    ServiceOverloaded,
    TenantQuotaExceeded,
    TenantRateLimited,
    UnknownTenant,
)
from repro.obs import (
    MetricsRegistry,
    render_prometheus,
    scoped_event_sink,
    scoped_registry,
)
from repro.obs.promlint import lint_prometheus
from repro.service import QueryService, ServiceConfig, TenantQuota


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
