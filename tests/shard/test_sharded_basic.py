"""ShardedDatabase surface: DDL, routing, pushdown, EXPLAIN, portal."""

import pytest

from repro.core.config import ShardConfig, VeriDBConfig
from repro.errors import PlanningError, StorageError
from repro.obs.metrics import MetricsRegistry
from repro.shard import ShardedDatabase


def fleet(**kwargs):
    kwargs.setdefault("shard_count", 3)
    kwargs.setdefault("base", VeriDBConfig(key_seed=11))
    return ShardedDatabase(ShardConfig(**kwargs), registry=MetricsRegistry())


def counter(db, name):
    snap = db.obs.snapshot().get(name)
    return 0 if snap is None else snap["value"]


@pytest.fixture
def db():
    with fleet() as db:
        db.execute(
            "CREATE TABLE users (id INT PRIMARY KEY, city TEXT, "
            "score INT, CHAIN (score))"
        )
        db.load_rows(
            "users",
            [
                (i, ["lyon", "oslo", "kyiv"][i % 3], i * 10)
                for i in range(30)
            ],
        )
        yield db


# ----------------------------------------------------------------------
# DDL and data placement
# ----------------------------------------------------------------------
def test_create_without_primary_key_rejected():
    with fleet() as db:
        with pytest.raises(PlanningError):
            db.execute("CREATE TABLE bad (id INT)")


def test_rows_are_partitioned_across_workers(db):
    per_shard = db.router.broadcast("row_count", {"table": "users"})
    assert sum(per_shard) == 30
    # blake2b placement over 30 distinct keys should touch every shard
    assert all(count > 0 for count in per_shard)
    assert db.table("users").row_count == 30


def test_drop_table_broadcasts(db):
    db.execute("DROP TABLE users")
    assert "users" not in db.catalog.table_names()
    for link in db.links:
        assert "users" not in link.worker.db.catalog.table_names()


# ----------------------------------------------------------------------
# DML routing
# ----------------------------------------------------------------------
def test_point_lookup_and_update_delete(db):
    assert db.execute("SELECT city FROM users WHERE id = 7").rows == [("oslo",)]
    db.execute("UPDATE users SET city = 'rome' WHERE id = 7")
    assert db.execute("SELECT city FROM users WHERE id = 7").rows == [("rome",)]
    db.execute("DELETE FROM users WHERE id = 7")
    assert db.execute("SELECT * FROM users WHERE id = 7").rows == []
    assert db.table("users").row_count == 29


def test_duplicate_primary_key_rejected(db):
    with pytest.raises(StorageError, match="duplicate primary key"):
        db.load_rows("users", [(3, "lyon", 0)])


def test_non_pk_shard_key_keeps_global_pk_uniqueness():
    with fleet(shard_keys={"events": "region"}) as db:
        db.execute(
            "CREATE TABLE events (id INT PRIMARY KEY, region INT, v INT)"
        )
        db.load_rows("events", [(1, 10, 0), (2, 20, 0), (3, 30, 0)])
        # same pk, different region → would land on a different shard;
        # the proxy must still see the duplicate fleet-wide
        with pytest.raises(StorageError, match="duplicate primary key"):
            db.load_rows("events", [(1, 20, 1)])
        # update that moves the shard key relocates the row
        db.execute("UPDATE events SET region = 99 WHERE id = 2")
        assert db.execute(
            "SELECT region FROM events WHERE id = 2"
        ).rows == [(99,)]
        assert db.table("events").row_count == 3
        # placement does not follow the pk: a point update or delete by
        # pk cannot be routed and is broadcast to every shard
        db.execute("UPDATE events SET v = 7 WHERE id = 3")
        db.execute("DELETE FROM events WHERE id = 1")
        assert db.execute("SELECT id, region, v FROM events ORDER BY id").rows == [
            (2, 99, 0),
            (3, 30, 7),
        ]
        db.verify_now()


def test_chain_scan_merges_sorted_runs(db):
    rows = db.execute(
        "SELECT id, score FROM users WHERE score BETWEEN 40 AND 80 "
        "ORDER BY score"
    ).rows
    assert rows == [(4, 40), (5, 50), (6, 60), (7, 70), (8, 80)]


# ----------------------------------------------------------------------
# pushdown and pruning
# ----------------------------------------------------------------------
def test_aggregate_pushdown_merges_partials(db):
    before = counter(db, "shard.pushdown_aggregate")
    result = db.execute(
        "SELECT city, COUNT(*), SUM(score), AVG(score) FROM users "
        "GROUP BY city ORDER BY city"
    )
    assert counter(db, "shard.pushdown_aggregate") == before + 1
    expected = {}
    for i in range(30):
        city = ["lyon", "oslo", "kyiv"][i % 3]
        n, s = expected.get(city, (0, 0))
        expected[city] = (n + 1, s + i * 10)
    assert result.rows == [
        (city, n, s, s / n) for city, (n, s) in sorted(expected.items())
    ]


def test_global_aggregate_over_empty_table():
    with fleet() as db:
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        assert db.execute("SELECT COUNT(*), SUM(v) FROM t").rows == [(0, None)]


def test_row_pushdown_with_order_limit(db):
    before = counter(db, "shard.pushdown_select")
    result = db.execute(
        "SELECT id, score FROM users WHERE score >= 250 "
        "ORDER BY score DESC LIMIT 4"
    )
    assert counter(db, "shard.pushdown_select") == before + 1
    assert result.rows == [(29, 290), (28, 280), (27, 270), (26, 260)]


def test_pruned_point_query(db):
    before = counter(db, "shard.partitions_pruned")
    result = db.execute("SELECT city FROM users WHERE id = ?", params=(12,))
    assert result.rows == [("lyon",)]
    assert counter(db, "shard.partitions_pruned") == before + 2  # 3 shards - 1


def test_range_partitioned_table_prunes_ranges():
    with fleet(shard_ranges={"t": (100, 200)}) as db:
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        db.load_rows("t", [(i, i) for i in range(0, 300, 10)])
        before = counter(db, "shard.partitions_pruned")
        rows = db.execute("SELECT k FROM t WHERE k >= 210 ORDER BY k").rows
        assert rows == [(k,) for k in range(210, 300, 10)]
        assert counter(db, "shard.partitions_pruned") == before + 2


def test_join_falls_back_to_gather(db):
    db.execute("CREATE TABLE cities (name TEXT PRIMARY KEY, pop INT)")
    db.load_rows("cities", [("lyon", 500), ("oslo", 700), ("kyiv", 3000)])
    before = counter(db, "shard.fallback_gather")
    result = db.execute(
        "SELECT u.id, c.pop FROM users u JOIN cities c ON u.city = c.name "
        "WHERE u.id < 2 ORDER BY u.id"
    )
    assert counter(db, "shard.fallback_gather") > before
    assert result.rows == [(0, 500), (1, 700)]


# ----------------------------------------------------------------------
# EXPLAIN / prepare / portal
# ----------------------------------------------------------------------
def test_explain_shows_scatter_gather(db):
    plan = "\n".join(
        line
        for (line,) in db.execute(
            "EXPLAIN SELECT city, SUM(score) FROM users GROUP BY city"
        ).rows
    )
    assert "ShardGather[agg]" in plan
    assert "shards=[0, 1, 2]" in plan
    assert plan.count("ShardFragment") == 3  # per-shard attribution


def test_explain_analyze_annotates_fragments(db):
    report = str(
        db.explain_analyze("SELECT city, COUNT(*) FROM users GROUP BY city")
    )
    assert "ShardGather" in report
    assert "rows=" in report


def test_prepared_statement_prunes_per_execution(db):
    stmt = db.prepare("SELECT city FROM users WHERE id = ?")
    assert stmt.execute((12,)).rows == [("lyon",)]
    assert stmt.execute((13,)).rows == [("oslo",)]
    base = counter(db, "shard.partitions_pruned")
    stmt.execute((14,))
    assert counter(db, "shard.partitions_pruned") == base + 2


def test_portal_round_trip(db):
    client = db.connect("tester")
    response = client.execute("SELECT COUNT(*) FROM users")
    assert tuple(response.rows) == ((30,),)


def test_query_service_dispatches_over_the_fleet(db):
    """The multi-tenant service front-end is backend-agnostic: pointed
    at a ShardedDatabase, tenants submit MAC'd queries through the
    coordinator portal and scatter-gather answers come back endorsed."""
    from repro.service import QueryService, ServiceConfig

    service = QueryService(db, ServiceConfig(max_workers=2), registry=db.obs)
    try:
        client = service.connect(service.register_tenant("acme"))
        result = client.execute(
            "SELECT city, COUNT(*) FROM users GROUP BY city"
        )
        assert sorted(result.rows) == [("kyiv", 10), ("lyon", 10), ("oslo", 10)]
        assert result.verified
        pruned = client.execute(
            "SELECT score FROM users WHERE id = ?", params=(9,)
        )
        assert tuple(pruned.rows) == ((90,),)
    finally:
        service.close()


def test_stats_and_epoch_round(db):
    db.verify_now()
    stats = db.stats()
    assert stats["shard_count"] == 3
    assert stats["fleet_round"] == 1
    assert stats["fleet_digest"] is not None
    assert counter(db, "shard.epoch_closes") == 1
