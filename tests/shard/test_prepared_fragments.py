"""Prepared fleet fragments: planned once per shape at both ends of the link.

A pushed-down SELECT's cached coordinator plan is its scatter-gather
template, numbered with a fragment id; a worker plans the fragment once,
caches it under that id, and afterwards receives only the id and the
parameters. These tests pin what that buys (planning stays flat, one
request per pruned point, routing counters count executions) and every
way a worker can lose the plan (DDL, restart, eviction) — each checked
against the rows the statement must return.
"""

import pytest

from repro.core.config import ShardConfig, VeriDBConfig
from repro.obs.metrics import MetricsRegistry
from repro.shard import ShardedDatabase
from repro.storage.config import StorageConfig

ROWS = 24
POINT = "SELECT k, v FROM t WHERE k = ?"
AGG = "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g"


def fleet(shard_count=2, base=None, **kwargs):
    return ShardedDatabase(
        ShardConfig(
            shard_count=shard_count,
            base=base or VeriDBConfig(key_seed=19),
            **kwargs,
        ),
        registry=MetricsRegistry(),
    )


def load(db):
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, g INT, v INT)")
    db.load_rows("t", [(k, k % 3, k * 7) for k in range(ROWS)])


def expected_agg():
    groups = {}
    for k in range(ROWS):
        count, total = groups.get(k % 3, (0, 0))
        groups[k % 3] = (count + 1, total + k * 7)
    return [(g, count, total) for g, (count, total) in sorted(groups.items())]


def counter(db, name):
    snap = db.obs.snapshot().get(name)
    return 0 if snap is None else snap["value"]


def worker_counter(link, name):
    snap = link.worker.obs.snapshot().get(name)
    return 0 if snap is None else snap["value"]


def warm(db, point, agg):
    # every key once: each shard has planned the point fragment
    for k in range(ROWS):
        assert point.execute((k,)).rows == [(k, k * 7)]
    assert sorted(agg.execute().rows) == expected_agg()


# ----------------------------------------------------------------------
# planning happens once per shape, at both ends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["inproc", "process"])
def test_planning_is_flat_after_warm_up(transport):
    with fleet(transport=transport, request_timeout=30.0) as db:
        load(db)
        point, agg = db.prepare(POINT), db.prepare(AGG)
        warm(db, point, agg)
        db.router.broadcast("metrics_snapshot", {})  # worker delta baseline
        planned = counter(db, "sql.statements_planned")
        requests = counter(db, "shard.requests")
        for i in range(50):
            k = i % ROWS
            assert point.execute((k,)).rows == [(k, k * 7)]
        # one envelope per pruned point: no AST, no miss, no resend
        assert counter(db, "shard.requests") - requests == 50
        for _ in range(50):
            assert sorted(agg.execute().rows) == expected_agg()
        deltas = db.router.broadcast("metrics_snapshot", {})
        assert counter(db, "sql.statements_planned") == planned
        for delta in deltas:
            assert "sql.statements_planned" not in delta
            assert "sql.statements_parsed" not in delta
            assert delta["sql.plan_cache_hits"]["value"] >= 50


def test_routing_counters_count_executions_not_plans():
    names = (
        "shard.queries_scattered",
        "shard.partitions_pruned",
        "shard.pushdown_select",
        "shard.pushdown_aggregate",
    )
    with fleet(shard_count=3) as db:
        load(db)
        before = {name: counter(db, name) for name in names}
        db.execute("EXPLAIN " + AGG)
        db.execute("EXPLAIN SELECT v FROM t WHERE k = 3")
        assert {name: counter(db, name) for name in names} == before
        point = db.prepare(POINT)
        for k in range(5):
            point.execute((k,))
        agg = db.prepare(AGG)
        for _ in range(2):
            agg.execute()
        after = {name: counter(db, name) - before[name] for name in names}
        assert after == {
            "shard.queries_scattered": 7,
            "shard.partitions_pruned": 5 * 2,
            "shard.pushdown_select": 5,
            "shard.pushdown_aggregate": 2,
        }


def test_pruning_is_a_run_fact_in_the_ledger():
    with fleet(shard_count=3) as db:
        load(db)
        db.execute(POINT, params=(4,))
        result = db.explain_analyze("SELECT k, v FROM t WHERE k = 4")
        assert result.rows == [(4, 28)]
        gather = result.plan
        assert gather["op"] == "ShardGatherOp"
        assert len(gather["shards"]) == 1 and gather["pruned"] == 2
        # a single participating shard's reply is the result: one batch
        assert gather["batches_out"] == 1
        assert "pruned=2" in result.text
        # the template itself still names every shard
        assert "shards=[0, 1, 2]" in gather["label"]


def test_explain_analyze_on_a_cached_fragment():
    with fleet() as db:
        load(db)
        db.execute(AGG)  # plans the fragment on every worker
        names = ("sql.statements_planned", "sql.plan_cache_hits")
        before = [[worker_counter(link, n) for n in names] for link in db.links]
        result = db.explain_analyze(AGG)
        after = [[worker_counter(link, n) for n in names] for link in db.links]
    assert sorted(result.rows) == expected_agg()
    # both workers ran their cached plan: a hit, no planning
    for b, a in zip(before, after):
        assert [a[0] - b[0], a[1] - b[1]] == [0, 1]
    segments = result.remote_segments()
    assert len(segments) == 2
    for segment in segments:
        assert segment["plan"] is not None
        # the root is the unclaimed remainder: frames sum to elapsed
        assert segment["totals"]["wall_seconds"] == pytest.approx(
            segment["elapsed_seconds"], rel=1e-6, abs=1e-9
        )


# ----------------------------------------------------------------------
# the ways a worker loses a plan
# ----------------------------------------------------------------------
def test_drop_and_recreate_with_another_column_order():
    with fleet() as db:
        load(db)
        point = db.prepare(POINT)
        assert point.execute((5,)).rows == [(5, 35)]
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (v INT, g INT, k INT PRIMARY KEY)")
        db.load_rows("t", [(k * 11, k % 2, k) for k in range(ROWS)])
        requests = counter(db, "shard.requests")
        assert point.execute((5,)).rows == [(5, 55)]
        # a rebuilt template has a fresh id: miss, then one resend
        assert counter(db, "shard.requests") - requests == 2
        assert sorted(db.execute(AGG).rows) == [
            (0, 12, sum(k * 11 for k in range(0, ROWS, 2))),
            (1, 12, sum(k * 11 for k in range(1, ROWS, 2))),
        ]


def test_worker_replans_a_stale_fragment_from_its_stored_ast():
    with fleet() as db:
        load(db)
        agg = db.prepare(AGG)
        agg.execute()
        # DDL the coordinator never saw moves every worker's schema
        # version; the coordinator's template (and its id) stays valid
        for link in db.links:
            link.worker.db.sql("CREATE TABLE side (x INT PRIMARY KEY)")
        invalidated = [
            worker_counter(link, "sql.plan_cache_invalidations")
            for link in db.links
        ]
        requests = counter(db, "shard.requests")
        assert sorted(agg.execute().rows) == expected_agg()
        assert counter(db, "shard.requests") - requests == 2  # no resend
        for link, before in zip(db.links, invalidated):
            assert worker_counter(
                link, "sql.plan_cache_invalidations"
            ) == before + 1


def test_restarted_worker_misses_and_gets_one_resend(tmp_path):
    base = VeriDBConfig(key_seed=19, wal_dir=str(tmp_path / "wal"))
    with fleet(base=base) as db:
        load(db)
        agg = db.prepare(AGG)
        assert sorted(agg.execute().rows) == expected_agg()
        db.restart_worker(1)
        requests = counter(db, "shard.requests")
        assert sorted(agg.execute().rows) == expected_agg()
        # shard 0 answers the id; shard 1 misses, then gets the AST
        assert counter(db, "shard.requests") - requests == 3
        requests = counter(db, "shard.requests")
        assert sorted(agg.execute().rows) == expected_agg()
        assert counter(db, "shard.requests") - requests == 2


def test_worker_plan_cache_of_one_under_alternating_shapes():
    storage = StorageConfig(plan_cache_size=1)
    with fleet(base=VeriDBConfig(key_seed=19, storage=storage)) as db:
        # the coordinator keeps both templates; only the workers evict
        db.engine.plan_cache.capacity = 8
        load(db)
        scan = db.prepare("SELECT k FROM t WHERE v > ? ORDER BY k")
        agg = db.prepare(AGG)
        for round_ in range(3):
            requests = counter(db, "shard.requests")
            floor = round_ * 35
            assert scan.execute((floor,)).rows == [
                (k,) for k in range(ROWS) if k * 7 > floor
            ]
            assert sorted(agg.execute().rows) == expected_agg()
            # each shape evicted the other: every fragment misses once
            assert counter(db, "shard.requests") - requests == 2 * 2 * 2


def test_fragment_requests_carry_no_ast_once_warm():
    with fleet() as db:
        load(db)
        link = db.links[0]
        seen = []
        worker = link.worker
        handle = worker._dispatch

        def spy(op, payload):
            if op == "stmt":
                seen.append(dict(payload))
            return handle(op, payload)

        worker._dispatch = spy
        agg = db.prepare(AGG)
        agg.execute()
        agg.execute()
    first, resend, warm_request = seen
    assert "stmt" not in first and "stmt" in resend
    assert set(warm_request) == {"fragment", "params"}
    assert warm_request["fragment"] == first["fragment"]
