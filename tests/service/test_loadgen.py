"""The open-loop load generator: scheduling, taxonomy, reporting."""

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.obs import MetricsRegistry, scoped_registry
from repro.service import (
    LoadGenerator,
    QueryService,
    ServiceConfig,
    print_sweep_table,
)
from repro.service.loadgen import CLIENT_LATENCY_METRIC


def build_db(seed=31):
    db = VeriDB(VeriDBConfig(key_seed=seed))
    db.sql("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
    for i in range(20):
        db.sql(f"INSERT INTO kv VALUES ({i}, {i})")
    return db


@pytest.fixture
def registry():
    with scoped_registry(MetricsRegistry()) as reg:
        yield reg


def test_small_run_all_complete(registry):
    with QueryService(
        build_db(), ServiceConfig(max_in_flight=64, max_workers=4),
        registry=registry,
    ) as svc:
        gen = LoadGenerator(svc, n_clients=8, registry=registry)
        report = gen.run("SELECT COUNT(*) FROM kv", target_qps=200, total_ops=40)
    assert report.offered == 40
    assert report.completed == 40
    assert report.rejected == 0
    assert report.protocol_errors == 0
    assert report.other_errors == 0
    assert report.error_samples == []
    assert report.duration_s > 0
    assert report.achieved_qps > 0
    # percentiles come from the shared log2 histogram
    assert registry.histogram(CLIENT_LATENCY_METRIC).count == 40
    assert report.p50_ms > 0
    assert report.p99_ms >= report.p95_ms >= report.p50_ms


def test_sql_for_callable_varies_queries(registry):
    with QueryService(build_db(), registry=registry) as svc:
        gen = LoadGenerator(svc, n_clients=4, registry=registry)
        report = gen.run(
            lambda op: f"SELECT v FROM kv WHERE k = {op % 20}",
            target_qps=500,
            total_ops=20,
        )
    assert report.completed == 20


def test_overload_counts_as_rejection_not_error(registry):
    """Over-offering a tiny quota produces typed rejections, zero errors."""
    svc = QueryService(
        build_db(), ServiceConfig(max_in_flight=64, max_workers=4),
        registry=registry,
    )
    gen = LoadGenerator(svc, n_clients=8, tenants=1, registry=registry)
    # throttle the single tenant after the fact: 1 op/s with burst 2
    from repro.service.tenants import TokenBucket

    svc.tenant("load-tenant-0").bucket = TokenBucket(rate_per_second=1.0, burst=2)
    report = gen.run("SELECT COUNT(*) FROM kv", target_qps=1000, total_ops=30)
    svc.close()
    assert report.completed >= 2
    assert report.rejected >= 1
    assert report.completed + report.rejected == 30
    assert report.protocol_errors == 0


def test_report_dict_shape(registry):
    with QueryService(build_db(), registry=registry) as svc:
        gen = LoadGenerator(svc, n_clients=2, registry=registry)
        report = gen.run("SELECT COUNT(*) FROM kv", target_qps=300, total_ops=6)
    payload = report.to_dict()
    assert payload["completed"] == 6
    assert set(payload["latency_ms"]) == {"p50", "p95", "p99", "mean"}
    assert payload["achieved_qps"] == pytest.approx(
        6 / payload["duration_s"]
    )


def test_saturation_sweep_resets_histogram_per_point(registry, capsys):
    with QueryService(build_db(), registry=registry) as svc:
        gen = LoadGenerator(svc, n_clients=4, registry=registry)
        reports = gen.saturation_sweep(
            "SELECT COUNT(*) FROM kv", qps_targets=[100, 200], ops_per_target=10
        )
        # histogram was reset between points: only the last run's samples
        assert registry.histogram(CLIENT_LATENCY_METRIC).count == 10
    assert [r.target_qps for r in reports] == [100, 200]
    assert all(r.completed == 10 for r in reports)
    print_sweep_table(reports)
    out = capsys.readouterr().out
    assert "target qps" in out and "p99 ms" in out


def test_clients_spread_over_tenants(registry):
    with QueryService(build_db(), registry=registry) as svc:
        gen = LoadGenerator(svc, n_clients=6, tenants=3, registry=registry)
        assert [c.tenant_id for c in gen.credentials] == [
            "load-tenant-0", "load-tenant-1", "load-tenant-2",
        ]
        gen.run("SELECT COUNT(*) FROM kv", target_qps=600, total_ops=12)
        for i in range(3):
            labels = {"tenant": f"load-tenant-{i}"}
            assert registry.counter("service.tenant.queries", labels=labels).value == 4
