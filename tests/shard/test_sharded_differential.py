"""Differential fuzzing: sharded fleet vs single enclave vs SQLite.

One seeded ``random.Random`` drives data and query generation; every
query runs against the sharded fleet (at shard counts 1/2/4, where every
shard-key predicate prunes), a single-enclave VeriDB, and SQLite. The fuzzed corpus is
INTEGER-only — float SUM is not associative, and partial-aggregate
merge reorders additions across shards, so integer columns are what
makes "byte-identical" a meaningful claim. A fixed wide mixed-type
corpus (TEXT / FLOAT / DATE / NULL, at the end) compares floats
approximately instead.

Comparisons: queries under a unique total ORDER BY must match the
single enclave *exactly* (order and all); everything else compares as
canonically sorted multisets. Every query runs four times on the
fleet — twice as text, twice through ``prepare`` — so the later runs
ride the coordinator's cached template and the workers' cached
fragments (id and parameters only); all four must agree byte for byte.
Each sweep ends with a fleet-wide epoch close.
"""

import random
import sqlite3

import pytest

from repro.core.config import ShardConfig, VeriDBConfig
from repro.core.database import VeriDB
from repro.obs.metrics import MetricsRegistry
from repro.shard import ShardedDatabase

SHARD_COUNTS = (1, 2, 4)

_DDL = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, "
    "b INTEGER{chain})"
)


def _canon(rows):
    def key(row):
        return tuple((value is None, value) for value in row)

    return sorted(rows, key=key)


class ShardFuzzer:
    """Random queries in the dialect all three engines accept."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def literal(self):
        return self.rng.randrange(-5, 51)

    def predicate(self, depth=2):
        roll = self.rng.random()
        if depth > 0 and roll < 0.25:
            connective = self.rng.choice(["AND", "OR"])
            return (
                f"({self.predicate(depth - 1)} {connective} "
                f"{self.predicate(depth - 1)})"
            )
        col = self.rng.choice(["id", "a", "b"])
        if roll < 0.4:
            negated = "NOT " if self.rng.random() < 0.5 else ""
            return f"({col} IS {negated}NULL)"
        if roll < 0.55:
            items = ", ".join(
                str(self.literal()) for _ in range(self.rng.randrange(1, 5))
            )
            return f"({col} IN ({items}))"
        if roll < 0.7:
            lo = self.rng.randrange(0, 25)
            return f"({col} BETWEEN {lo} AND {lo + self.rng.randrange(0, 25)})"
        op = self.rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"({col} {op} {self.literal()})"

    def next_query(self):
        """Returns ``(sql, params, exact_order)``."""
        roll = self.rng.random()
        if roll < 0.2:
            # shard-key point query with a bound parameter: the pruning
            # path, re-resolved per execution
            return (
                "SELECT id, a, b FROM t WHERE id = ?",
                (self.rng.randrange(0, 40),),
                True,
            )
        if roll < 0.4:
            # grouped partial aggregates (the merge path)
            return (
                "SELECT a, COUNT(*), COUNT(b), SUM(b), MIN(b), MAX(b), "
                f"AVG(a) FROM t WHERE {self.predicate()} GROUP BY a",
                (),
                False,
            )
        if roll < 0.5:
            # global aggregate, possibly over zero rows on some shards
            return (
                "SELECT COUNT(*), SUM(a), MIN(a), MAX(b) FROM t "
                f"WHERE {self.predicate()}",
                (),
                False,
            )
        if roll < 0.65:
            direction = self.rng.choice(["ASC", "DESC"])
            limit = self.rng.randrange(0, 12)
            return (
                f"SELECT id, a FROM t WHERE {self.predicate()} "
                f"ORDER BY id {direction} LIMIT {limit}",
                (),
                True,  # id is unique: a total order, compare exactly
            )
        if roll < 0.75:
            return (
                f"SELECT DISTINCT a, b FROM t WHERE {self.predicate()}",
                (),
                False,
            )
        return (
            f"SELECT id, a, b FROM t WHERE {self.predicate()}",
            (),
            False,
        )


def _setup(rng, shard_count):
    sharded = ShardedDatabase(
        ShardConfig(shard_count=shard_count, base=VeriDBConfig(key_seed=31)),
        registry=MetricsRegistry(),
    )
    single = VeriDB(VeriDBConfig(key_seed=31))
    connection = sqlite3.connect(":memory:")
    for db in (sharded, single):
        db.sql(_DDL.format(chain=", CHAIN (a)"))
    connection.execute(_DDL.format(chain=""))
    for i in range(rng.randrange(10, 40)):
        row = (
            i,
            rng.randrange(0, 8),
            None if rng.random() < 0.3 else rng.randrange(-5, 6),
        )
        sharded.table("t").insert(row)
        single.table("t").insert(row)
        connection.execute("INSERT INTO t VALUES (?, ?, ?)", row)
    return sharded, single, connection


def _sweep(seed, shard_count, queries=25, reseed_every=13):
    rng = random.Random(seed)
    fuzzer = ShardFuzzer(rng)
    sharded = single = connection = None
    try:
        for index in range(queries):
            if index % reseed_every == 0:
                if sharded is not None:
                    sharded.verify_now()
                    sharded.close()
                sharded, single, connection = _setup(rng, shard_count)
            sql, params, exact = fuzzer.next_query()
            tag = (
                f"seed={seed} index={index} shards={shard_count} "
                f"sql={sql!r} params={params!r}"
            )
            prepared = sharded.prepare(sql)
            runs = []
            for _ in range(2):
                runs.append(sharded.execute(sql, params=params or None).rows)
                runs.append(prepared.execute(params).rows)
            fleet_rows = runs[0]
            for rows in runs[1:]:
                assert list(rows) == list(fleet_rows), tag
            single_rows = single.sql(sql, params=params or None).rows
            sqlite_rows = [
                tuple(r) for r in connection.execute(sql, params).fetchall()
            ]
            if exact:
                # unique total order: the fleet answer must be
                # byte-identical to the single enclave's
                assert list(fleet_rows) == list(single_rows), tag
                assert list(single_rows) == sqlite_rows, tag
            else:
                assert len(fleet_rows) == len(sqlite_rows), tag
                assert _canon(fleet_rows) == _canon(single_rows), tag
                assert _canon(single_rows) == _canon(sqlite_rows), tag
        sharded.verify_now()
        single.verify_now()
    finally:
        if sharded is not None:
            sharded.close()


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_fleet_matches_single_enclave_and_sqlite(shard_count):
    _sweep(seed=17 + shard_count, shard_count=shard_count)


@pytest.mark.slow
@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_fleet_deep_corpus(shard_count):
    for seed in range(4):
        _sweep(seed, shard_count, queries=80)


# ----------------------------------------------------------------------
# the wide mixed-type corpus (TEXT / FLOAT / DATE / NULL, projections of
# one to all columns, joins, subqueries, ORDER BY references): narrow
# projections travel to the workers in pushed-down fragments and in the
# proxy stores' gather-mode scans alike
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_fleet_wide_table_projections(shard_count):
    from tests.sql.test_sqlite_differential import (
        WIDE_CHAINS,
        WIDE_DDL,
        WIDE_QUERIES,
        assert_wide_rows,
        wide_expected,
        wide_rows,
        wide_sqlite,
    )

    sharded = ShardedDatabase(
        ShardConfig(shard_count=shard_count, base=VeriDBConfig(key_seed=31)),
        registry=MetricsRegistry(),
    )
    try:
        single = VeriDB(VeriDBConfig(key_seed=31))
        w, v = wide_rows(seed=40 + shard_count)
        for db in (sharded, single):
            for ddl, chain in zip(WIDE_DDL, WIDE_CHAINS):
                db.sql(ddl.format(chain=chain))
            for name, rows in (("w", w), ("v", v)):
                for row in rows:
                    db.table(name).insert(row)
        connection = wide_sqlite(w, v)
        for sql, ordered in WIDE_QUERIES:
            tag = f"shards={shard_count} sql={sql!r}"
            theirs = wide_expected(connection, sql)
            assert_wide_rows(single.sql(sql).rows, theirs, ordered, tag)
            assert_wide_rows(sharded.execute(sql).rows, theirs, ordered, tag)
            assert_wide_rows(sharded.execute(sql).rows, theirs, ordered, tag)
        sharded.verify_now()
        single.verify_now()
    finally:
        sharded.close()
