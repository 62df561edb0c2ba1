"""The open-loop load generator: scheduling, taxonomy, reporting, knee."""

import time

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.obs import NULL_REGISTRY, MetricsRegistry, scoped_registry
from repro.service import (
    KneeReport,
    LoadGenerator,
    LoadReport,
    QueryService,
    ServiceConfig,
    print_sweep_table,
)
from repro.service.loadgen import CLIENT_LATENCY_METRIC, KNEE_FRACTIONS


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
    assert set(payload["generator_lag_ms"]) == {"mean", "max"}
    assert payload["achieved_qps"] == pytest.approx(
        6 / payload["duration_s"]
    )


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


def test_run_on_the_null_registry():
    with QueryService(build_db(), registry=NULL_REGISTRY) as svc:
        gen = LoadGenerator(svc, n_clients=2, registry=NULL_REGISTRY)
        reports = [
            gen.run("SELECT COUNT(*) FROM kv", target_qps=qps, total_ops=4)
            for qps in (200, 400)
        ]
    assert [r.completed for r in reports] == [4, 4]
    assert all(r.p99_ms == 0.0 for r in reports)


def _slow_service(registry, seconds):
    """One execution slot, each execution ``seconds`` long: a service
    whose capacity is just under ``1 / seconds`` queries per second."""
    svc = QueryService(
        build_db(), ServiceConfig(max_in_flight=256, max_workers=1),
        registry=registry,
    )
    original = svc._run

    def slow(tenant, query, admitted_at):
        time.sleep(seconds)
        return original(tenant, query, admitted_at)

    svc._run = slow
    return svc


def test_latency_is_timed_from_the_schedule(registry):
    """A generator that falls behind must not hide the backlog: one
    client thread, 20 ms per query, an arrival every 5 ms."""
    with _slow_service(registry, 0.02) as svc:
        gen = LoadGenerator(svc, n_clients=1, registry=registry)
        report = gen.run("SELECT COUNT(*) FROM kv", target_qps=200, total_ops=10)
    assert report.completed == 10
    # arrival i starts ~15 ms x i late, and its latency includes that
    assert report.lag_max_ms > 60
    assert report.lag_mean_ms > 20
    assert report.p99_ms > 60
    assert report.p99_ms >= report.lag_max_ms


def test_saturation_sweep_resets_histogram_per_point(registry, capsys):
    """Every rate point of the knee search empties the latency histogram
    first, so each report's percentiles describe that point alone."""
    with _slow_service(registry, 0.01) as svc:
        gen = LoadGenerator(svc, n_clients=4, registry=registry)
        knee = gen.find_knee(
            "SELECT COUNT(*) FROM kv", start_qps=20, seconds_per_point=0.1,
            repeats=1,
        )
        assert knee.knee_qps > 0
        last = knee.near[KNEE_FRACTIONS[-1]][-1]
        # only the last run's samples are left
        assert registry.histogram(CLIENT_LATENCY_METRIC).count == last.completed
    runs = knee.points + [r for near in knee.near.values() for r in near]
    assert sum(r.completed for r in runs) > last.completed
    assert [p.target_qps for p in knee.points][:2] == [20, 40]
    print_sweep_table(knee.points)
    out = capsys.readouterr().out
    assert "target qps" in out and "p99 ms" in out


def test_find_knee_against_a_service_of_known_capacity(registry):
    capacity = 50.0  # 20 ms per query, one at a time
    with _slow_service(registry, 1 / capacity) as svc:
        gen = LoadGenerator(svc, n_clients=8, registry=registry)
        knee = gen.find_knee(
            "SELECT COUNT(*) FROM kv", start_qps=10, seconds_per_point=0.2,
            repeats=1,
        )
    assert 0.4 * capacity <= knee.knee_qps <= 1.1 * capacity
    assert knee.spread_qps == 0
    targets = [p.target_qps for p in knee.points]
    # doubling from the start rate until a point falls behind, then one
    # bisection step
    assert targets[:3] == [10, 20, 40]
    assert all(b == 2 * a for a, b in zip(targets[:-2], targets[1:-1]))
    assert targets[-1] == 0.75 * targets[-2]
    assert not knee.points[-2].keeps_up
    assert all(p.keeps_up for p in knee.points[:-2])
    assert sorted(knee.near) == [0.5, 0.9]
    for fraction, runs in knee.near.items():
        assert [r.target_qps for r in runs] == [fraction * knee.knee_qps]
        assert all(r.completed == r.offered for r in runs)
    assert knee.protocol_errors == knee.other_errors == 0
    payload = knee.to_dict()
    assert payload["knee_qps"] == knee.knee_qps
    assert set(payload["near_knee"]) == {"0.5x", "0.9x"}
    assert len(payload["points"]) == len(knee.points)


def test_knee_report_is_the_median_of_its_searches():
    def point(qps, completed):
        return LoadReport(
            target_qps=qps, n_clients=1, offered=completed, completed=completed,
            duration_s=1.0,
        )

    report = KneeReport(
        knees=[40.0, 60.0, 50.0],
        points=[point(40, 40), point(80, 50)],
        near={0.5: [point(25, 25), point(25, 25)]},
    )
    assert report.knee_qps == 50.0
    assert report.spread_qps == 20.0
    assert report.points[0].keeps_up and not report.points[1].keeps_up
    assert report.to_dict()["near_knee"]["0.5x"]["target_qps"] == 25
