"""Differential testing against SQLite.

Hypothesis generates random tables and random queries from a dialect
subset both engines accept, runs them on VeriDB (over fully verified
storage) and on SQLite, and compares results. Divergence means a bug in
our parser, planner, operators or NULL handling.

The generated subset deliberately avoids known semantic differences:
no division (SQLite's ``/`` on integers truncates), no string ordering
edge cases beyond plain ASCII, LIMIT only under a unique total ORDER
BY.
"""

import random
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.sql.executor import QueryEngine
from repro.storage.engine import StorageEngine
from tests.conftest import chunk_rows

# ----------------------------------------------------------------------
# data generation
# ----------------------------------------------------------------------
_row = st.tuples(
    st.integers(0, 50),  # a
    st.one_of(st.none(), st.integers(-5, 5)),  # b (nullable)
    st.one_of(st.none(), st.text(alphabet="xyz", max_size=2)),  # s (nullable)
)
_rows = st.lists(_row, max_size=25)

# ----------------------------------------------------------------------
# predicate generation (shared dialect)
# ----------------------------------------------------------------------
_comparison = st.builds(
    lambda col, op, lit: f"({col} {op} {lit})",
    st.sampled_from(["a", "b", "id"]),
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    st.integers(-5, 50),
)
_between = st.builds(
    lambda col, lo, hi: f"({col} BETWEEN {lo} AND {hi})",
    st.sampled_from(["a", "id"]),
    st.integers(0, 25),
    st.integers(10, 50),
)
_in_list = st.builds(
    lambda col, items: f"({col} IN ({', '.join(map(str, items))}))",
    st.sampled_from(["a", "b"]),
    st.lists(st.integers(-5, 50), min_size=1, max_size=4),
)
_is_null = st.builds(
    lambda col, negated: f"({col} IS {'NOT ' if negated else ''}NULL)",
    st.sampled_from(["b", "s"]),
    st.booleans(),
)
_atom = st.one_of(_comparison, _between, _in_list, _is_null)
_predicate = st.recursive(
    _atom,
    lambda inner: st.builds(
        lambda left, connective, right: f"({left} {connective} {right})",
        inner,
        st.sampled_from(["AND", "OR"]),
        inner,
    ),
    max_leaves=4,
)


def _run_both(rows, sql, params=None):
    storage = StorageEngine()
    engine = QueryEngine(Catalog(), storage)
    engine.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, "
        "b INTEGER, s TEXT, CHAIN (a))"
    )
    connection = sqlite3.connect(":memory:")
    connection.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, "
        "b INTEGER, s TEXT)"
    )
    for i, (a, b, s) in enumerate(rows):
        engine.catalog.lookup("t").store.insert((i, a, b, s))
        connection.execute("INSERT INTO t VALUES (?, ?, ?, ?)", (i, a, b, s))
    # run every query twice: the first execution populates the plan
    # cache, the second is served from it — both must agree with SQLite
    ours = engine.execute(sql, params=params).rows
    cached = engine.execute(sql, params=params).rows
    assert _canon(cached) == _canon(ours), "plan-cache hit changed rows"
    theirs = [
        tuple(r)
        for r in connection.execute(sql, params or ()).fetchall()
    ]
    storage.verify_now()
    return ours, theirs


def _canon(rows):
    def key(row):
        return tuple((value is None, value) for value in row)

    return sorted(rows, key=key)


def _approx_equal(ours, theirs):
    assert len(ours) == len(theirs)
    for mine, other in zip(_canon(ours), _canon(theirs)):
        assert len(mine) == len(other)
        for a, b in zip(mine, other):
            if isinstance(a, float) or isinstance(b, float):
                assert a == pytest.approx(b)
            else:
                assert a == b


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@settings(max_examples=60)
@given(rows=_rows, predicate=_predicate)
def test_filtered_select_matches_sqlite(rows, predicate):
    sql = f"SELECT id, a, b, s FROM t WHERE {predicate}"
    ours, theirs = _run_both(rows, sql)
    _approx_equal(ours, theirs)


@settings(max_examples=40)
@given(rows=_rows, predicate=_predicate)
def test_aggregates_match_sqlite(rows, predicate):
    sql = (
        "SELECT COUNT(*), COUNT(b), SUM(a), MIN(b), MAX(a), AVG(a) "
        f"FROM t WHERE {predicate}"
    )
    ours, theirs = _run_both(rows, sql)
    # empty-input aggregates: SQLite yields one row of NULLs for
    # SUM/MIN/MAX/AVG and 0 for COUNT — ours does the same
    _approx_equal(ours, theirs)


@settings(max_examples=40)
@given(rows=_rows)
def test_group_by_matches_sqlite(rows):
    sql = "SELECT a, COUNT(*), SUM(a), MIN(b) FROM t GROUP BY a"
    ours, theirs = _run_both(rows, sql)
    _approx_equal(ours, theirs)


@settings(max_examples=40)
@given(rows=_rows, limit=st.integers(0, 10), descending=st.booleans())
def test_order_limit_matches_sqlite(rows, limit, descending):
    direction = "DESC" if descending else "ASC"
    sql = f"SELECT id, a FROM t ORDER BY id {direction} LIMIT {limit}"
    ours, theirs = _run_both(rows, sql)
    assert list(ours) == theirs  # exact order: id is unique


@settings(max_examples=30)
@given(rows=_rows, predicate=_predicate)
def test_distinct_matches_sqlite(rows, predicate):
    sql = f"SELECT DISTINCT a, b FROM t WHERE {predicate}"
    ours, theirs = _run_both(rows, sql)
    _approx_equal(ours, theirs)


@settings(max_examples=30)
@given(rows=_rows)
def test_scalar_subquery_matches_sqlite(rows):
    sql = "SELECT id FROM t WHERE a >= (SELECT AVG(a) FROM t)"
    ours, theirs = _run_both(rows, sql)
    if not rows:
        # AVG over empty input is NULL; the comparison is never true
        assert ours == [] and theirs == []
        return
    _approx_equal(ours, theirs)


@settings(max_examples=40)
@given(
    rows=_rows,
    col=st.sampled_from(["a", "b", "id"]),
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    value=st.one_of(st.none(), st.integers(-5, 50)),
    other=st.integers(-5, 5),
)
def test_parameterized_select_matches_sqlite(rows, col, op, value, other):
    """Bound ``?`` parameters behave exactly like inlined literals.

    Both engines take the same placeholder syntax; the same shape is
    executed twice per example (second run is a plan-cache hit with the
    same binding), and NULL bindings exercise the scans'
    parameter-resolution short-circuit.
    """
    sql = f"SELECT id, a, b FROM t WHERE ({col} {op} ?) OR (b = ?)"
    ours, theirs = _run_both(rows, sql, params=(value, other))
    _approx_equal(ours, theirs)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a.id, b.id FROM a, b WHERE a.x = b.y",
        "SELECT a.id, b.id FROM a LEFT JOIN b ON a.x = b.y",
    ],
)
@pytest.mark.parametrize("hint", [None, "merge", "nested_loop"])
def test_null_join_keys_equal_nothing(hint, sql):
    """``a.x = b.y`` is unknown when either key is NULL, so every join
    plan pairs a NULL key with nothing, not with the other side's NULL;
    under LEFT JOIN that row comes out NULL-extended."""
    engine = QueryEngine(Catalog(), StorageEngine())
    connection = sqlite3.connect(":memory:")
    for name, key, rows in (
        ("a", "x", [(1, None), (2, 5)]),
        ("b", "y", [(10, None), (11, 5)]),
    ):
        ddl = f"CREATE TABLE {name} (id INTEGER PRIMARY KEY, {key} INTEGER)"
        engine.execute(ddl)
        connection.execute(ddl)
        for row in rows:
            engine.catalog.lookup(name).store.insert(row)
            connection.execute(f"INSERT INTO {name} VALUES (?, ?)", row)
    theirs = [tuple(row) for row in connection.execute(sql)]
    assert _canon(engine.execute(sql, join_hint=hint).rows) == _canon(theirs)


# ----------------------------------------------------------------------
# seeded random-query fuzzer: joins, aggregates, NULLs, ORDER/LIMIT
#
# One seeded ``random.Random`` drives both data and query generation, so
# a failure reproduces from nothing but the printed (seed, index) pair.
# The CI corpus is bounded; the slow-marked variant runs a much larger
# sweep for opt-in deep runs (``pytest -m slow``).
# ----------------------------------------------------------------------
class QueryFuzzer:
    """Composes random two-table queries in the shared dialect subset."""

    #: equi-join conditions: two on NOT NULL keys, and ``t.b = u.c`` with
    #: NULLs on both sides, where a NULL key must equal nothing
    JOINS = ("t.a = u.a", "t.id = u.id", "t.b = u.c")

    def __init__(self, rng: random.Random):
        self.rng = rng

    def literal(self):
        return self.rng.randrange(-5, 51)

    def predicate(self, cols, depth=2):
        roll = self.rng.random()
        if depth > 0 and roll < 0.3:
            connective = self.rng.choice(["AND", "OR"])
            left = self.predicate(cols, depth - 1)
            right = self.predicate(cols, depth - 1)
            return f"({left} {connective} {right})"
        col = self.rng.choice(cols)
        if roll < 0.45:
            return f"({col} IS {'NOT ' if self.rng.random() < 0.5 else ''}NULL)"
        if roll < 0.6:
            items = ", ".join(
                str(self.literal()) for _ in range(self.rng.randrange(1, 5))
            )
            return f"({col} IN ({items}))"
        op = self.rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"({col} {op} {self.literal()})"

    def single_table(self):
        where = self.predicate(["a", "b", "id"])
        return f"SELECT id, a, b FROM t WHERE {where}", False

    def inner_join(self):
        on = self.rng.choice(self.JOINS)
        where = self.predicate(["t.a", "t.b", "u.c", "u.id"])
        sql = f"SELECT t.id, u.id, t.a, u.c FROM t JOIN u ON {on} WHERE {where}"
        return sql, False

    def left_join(self):
        on = self.rng.choice((self.JOINS[0], self.JOINS[2]))
        where = self.predicate(["t.a", "t.b"])
        sql = f"SELECT t.id, u.c FROM t LEFT JOIN u ON {on} WHERE {where}"
        return sql, False

    def join_aggregate(self):
        sql = (
            "SELECT t.a, COUNT(*), COUNT(u.c), SUM(u.c), MIN(u.c), MAX(t.b) "
            "FROM t LEFT JOIN u ON t.a = u.a GROUP BY t.a"
        )
        return sql, False

    def order_limit(self):
        direction = self.rng.choice(["ASC", "DESC"])
        limit = self.rng.randrange(0, 12)
        where = self.predicate(["t.a", "t.b", "u.c"])
        sql = (
            "SELECT t.id, u.id FROM t JOIN u ON t.a = u.a "
            f"WHERE {where} "
            f"ORDER BY t.id {direction}, u.id {direction} LIMIT {limit}"
        )
        return sql, True  # unique total order: compare exactly

    def aggregate_filter(self):
        where = self.predicate(["a", "b"])
        sql = (
            "SELECT COUNT(*), COUNT(b), SUM(b), MIN(a), MAX(b), AVG(a) "
            f"FROM t WHERE {where}"
        )
        return sql, False

    def next_query(self):
        shape = self.rng.choice(
            [
                self.single_table,
                self.inner_join,
                self.left_join,
                self.join_aggregate,
                self.order_limit,
                self.aggregate_filter,
            ]
        )
        return shape()


def _fuzz_setup(rng, storage_config=None):
    storage = StorageEngine(storage_config)
    engine = QueryEngine(Catalog(), storage)
    connection = sqlite3.connect(":memory:")
    ddl_t = (
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, "
        "b INTEGER, s TEXT{chain})"
    )
    ddl_u = (
        "CREATE TABLE u (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, "
        "c INTEGER{chain})"
    )
    engine.execute(ddl_t.format(chain=", CHAIN (a)"))
    engine.execute(ddl_u.format(chain=", CHAIN (a)"))
    connection.execute(ddl_t.format(chain=""))
    connection.execute(ddl_u.format(chain=""))
    for i in range(rng.randrange(5, 30)):
        row = (
            i,
            rng.randrange(0, 8),
            None if rng.random() < 0.3 else rng.randrange(-5, 6),
            None if rng.random() < 0.3 else rng.choice(["x", "y", "zz"]),
        )
        engine.catalog.lookup("t").store.insert(row)
        connection.execute("INSERT INTO t VALUES (?, ?, ?, ?)", row)
    for i in range(rng.randrange(0, 20)):
        row = (
            i,
            rng.randrange(0, 8),
            None if rng.random() < 0.3 else rng.randrange(0, 50),
        )
        engine.catalog.lookup("u").store.insert(row)
        connection.execute("INSERT INTO u VALUES (?, ?, ?)", row)
    return storage, engine, connection


def _fuzz_corpus(seed, queries, reseed_data_every=25, storage_config=None):
    """Run ``queries`` random queries; divergence fails with a repro tag.

    Every query runs twice: the second execution is served from the
    plan cache and must return the same rows, so the whole corpus
    doubles as a cache-coherence sweep.
    """
    rng = random.Random(seed)
    fuzzer = QueryFuzzer(rng)
    storage = engine = connection = None
    for index in range(queries):
        if index % reseed_data_every == 0:
            storage, engine, connection = _fuzz_setup(rng, storage_config)
        sql, exact_order = fuzzer.next_query()
        tag = f"seed={seed} index={index} sql={sql!r}"
        ours = engine.execute(sql).rows
        cached = engine.execute(sql).rows
        theirs = [tuple(r) for r in connection.execute(sql).fetchall()]
        if exact_order:
            assert list(ours) == theirs, tag
            assert list(cached) == theirs, tag
        else:
            assert len(ours) == len(theirs), tag
            assert _canon(ours) == _canon(theirs), tag
            assert _canon(cached) == _canon(theirs), tag
    storage.verify_now()


@pytest.mark.parametrize("seed", [11, 29, 47])
def test_fuzzer_ci_corpus(seed):
    _fuzz_corpus(seed, queries=60)


@pytest.mark.parametrize("batch_size", [1, 7, 256])
@pytest.mark.parametrize("plan_cache_size", [0, 128])
def test_fuzzer_batch_and_cache_matrix(batch_size, plan_cache_size):
    """Chunk length × cache-on/off never changes results.

    A chunk length of 1 puts a chunk boundary between every two rows;
    plan_cache_size=0 disables plan reuse entirely — every combination
    must agree with SQLite on the same corpus.
    """
    from repro.storage.config import StorageConfig

    with chunk_rows(batch_size):
        _fuzz_corpus(
            5, queries=30, storage_config=StorageConfig(plan_cache_size=plan_cache_size)
        )


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(8)))
def test_fuzzer_deep_corpus(seed):
    _fuzz_corpus(seed, queries=400)


# ----------------------------------------------------------------------
# a multi-page chained table: wide ranges scan and filter, narrow ones
# walk the chain (Planner SEQ_SCAN_SHARE); both must be SQLite's answer
# ----------------------------------------------------------------------
def test_wide_and_narrow_ranges_on_a_multi_page_chain_match_sqlite():
    rng = random.Random(13)
    storage = StorageEngine()
    engine = QueryEngine(Catalog(), storage)
    connection = sqlite3.connect(":memory:")
    ddl = (
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, "
        "b INTEGER, s TEXT{chain})"
    )
    engine.execute(ddl.format(chain=", CHAIN (a)"))
    connection.execute(ddl.format(chain=""))
    rows = [
        (i, rng.randrange(0, 100), rng.choice([None, rng.randrange(-5, 6)]), "s" * (i % 40))
        for i in rng.sample(range(1000), 600)
    ]
    table = engine.catalog.lookup("t").store
    table.insert_many(rows)
    connection.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    assert table.page_count() > 1
    paths = set()
    for index in range(40):
        lo = rng.randrange(-10, 100)
        hi = lo + rng.choice([rng.randrange(0, 30), rng.randrange(80, 120)])
        where = rng.choice(
            [
                f"a {rng.choice(['>', '>='])} {lo} AND a {rng.choice(['<', '<='])} {hi}",
                f"a BETWEEN {lo} AND {hi} AND b IS NOT NULL",
                f"a {rng.choice(['>', '>=', '<', '<='])} {lo}",
            ]
        )
        select = rng.choice(["id, a, b", "COUNT(*), SUM(b), MIN(a), MAX(a)"])
        sql = f"SELECT {select} FROM t WHERE {where}"
        result = engine.execute(sql)
        paths.add("SeqScan(" in result.explain())
        theirs = [tuple(r) for r in connection.execute(sql).fetchall()]
        assert _canon(result.rows) == _canon(theirs), f"index={index} sql={sql!r}"
    assert paths == {True, False}  # both access paths were exercised
    storage.verify_now()


# ----------------------------------------------------------------------
# wide mixed-type tables read through narrow projections
#
# Scans emit only the columns a statement references, decoded by a
# decoder compiled for that projection. This corpus reads one to three
# columns of a seven-column TEXT/FLOAT/DATE/NULL table, all of them,
# only a chained column, columns referenced by nothing but a WHERE,
# ORDER BY, HAVING, join or subquery — at every chunk length. The sharded
# differential (tests/shard) runs the same corpus across a fleet.
# ----------------------------------------------------------------------
WIDE_DDL = (
    "CREATE TABLE w (id INTEGER PRIMARY KEY, k INTEGER NOT NULL, "
    "name TEXT NOT NULL, price FLOAT, day DATE NOT NULL, note TEXT, "
    "qty INTEGER{chain})",
    "CREATE TABLE v (id INTEGER PRIMARY KEY, k INTEGER NOT NULL, "
    "label TEXT{chain})",
)
WIDE_CHAINS = (", CHAIN (k, day)", ", CHAIN (k)")

#: (sql, rows must match in order)
WIDE_QUERIES = [
    ("SELECT name FROM w", False),
    ("SELECT note FROM w WHERE note IS NOT NULL", False),
    ("SELECT id, price FROM w WHERE price > 20.5", False),
    ("SELECT name, day, qty FROM w WHERE qty IS NULL OR qty < 3", False),
    ("SELECT * FROM w", False),
    ("SELECT * FROM w WHERE k = 2", False),
    ("SELECT k FROM w", False),
    ("SELECT k FROM w WHERE k BETWEEN 1 AND 3", False),
    ("SELECT day FROM w WHERE day >= DATE '1995-03-01'", False),
    ("SELECT name FROM w WHERE price < 10 AND note IS NULL", False),
    ("SELECT 1 FROM w WHERE k = 1", False),
    ("SELECT COUNT(*) FROM w", False),
    ("SELECT COUNT(*) FROM w WHERE day < DATE '1995-02-01'", False),
    ("SELECT k, COUNT(note), MIN(price), MAX(day) FROM w GROUP BY k", False),
    ("SELECT k, COUNT(*) FROM w GROUP BY k HAVING MAX(qty) > 2", False),
    ("SELECT AVG(price), SUM(qty), MIN(name) FROM w", False),
    ("SELECT DISTINCT k, note FROM w", False),
    ("SELECT name FROM w ORDER BY day, id", True),
    ("SELECT price AS p, id FROM w WHERE price IS NOT NULL ORDER BY p, id", True),
    ("SELECT name, qty FROM w ORDER BY id DESC LIMIT 5", True),
    ("SELECT * FROM w ORDER BY id LIMIT 3", True),
    ("SELECT w.name, v.label FROM w JOIN v ON w.k = v.k WHERE w.qty > 1", False),
    ("SELECT w.note, v.label FROM w JOIN v ON w.qty = v.id", False),
    ("SELECT w.id, v.label FROM w LEFT JOIN v ON w.id = v.id", False),
    # NULL on both sides of the key: a NULL note equals no NULL label
    ("SELECT w.id, v.id, w.note FROM w LEFT JOIN v ON w.note = v.label", False),
    ("SELECT * FROM w JOIN v ON w.k = v.k WHERE v.label IS NULL", False),
    ("SELECT name FROM w WHERE price > (SELECT AVG(price) FROM w)", False),
    (
        "SELECT id, day FROM w WHERE k IN "
        "(SELECT k FROM v WHERE label IS NOT NULL)",
        False,
    ),
    (
        "SELECT note FROM w WHERE qty = (SELECT MAX(qty) FROM w) "
        "ORDER BY name DESC, id",
        True,
    ),
]


def wide_rows(seed):
    """Deterministic rows for ``w`` and ``v`` (dates as ``datetime.date``)."""
    import datetime

    rng = random.Random(seed)
    start = datetime.date(1995, 1, 1)
    w = [
        (
            i,
            rng.randrange(0, 5),
            rng.choice(["ann", "bob", "cy", "dée"]) + str(rng.randrange(3)),
            None if rng.random() < 0.25 else rng.randrange(0, 4000) / 100.0,
            start + datetime.timedelta(days=rng.randrange(0, 120)),
            None if rng.random() < 0.4 else rng.choice(["x", "yy", ""]),
            None if rng.random() < 0.3 else rng.randrange(0, 6),
        )
        for i in range(rng.randrange(20, 45))
    ]
    v = [
        (i, rng.randrange(0, 7), None if rng.random() < 0.3 else f"l{i % 4}")
        for i in range(rng.randrange(3, 12))
    ]
    return w, v


def wide_sqlite(w, v):
    """SQLite holding the same rows, dates as ISO strings."""
    connection = sqlite3.connect(":memory:")
    for ddl in WIDE_DDL:
        connection.execute(ddl.format(chain=""))
    for row in w:
        connection.execute(
            "INSERT INTO w VALUES (?, ?, ?, ?, ?, ?, ?)",
            tuple(x.isoformat() if hasattr(x, "isoformat") else x for x in row),
        )
    connection.executemany("INSERT INTO v VALUES (?, ?, ?)", v)
    return connection


def wide_expected(connection, sql):
    # SQLite has no DATE literal; ISO strings order the same way
    return [tuple(r) for r in connection.execute(sql.replace("DATE '", "'"))]


def assert_wide_rows(ours, theirs, ordered, tag):
    ours = [
        tuple(x.isoformat() if hasattr(x, "isoformat") else x for x in row)
        for row in ours
    ]
    if not ordered:
        ours, theirs = _canon(ours), _canon(theirs)
    assert len(ours) == len(theirs), tag
    for mine, other in zip(ours, theirs):
        assert len(mine) == len(other), tag
        for a, b in zip(mine, other):
            if isinstance(a, float) and isinstance(b, float):
                assert a == pytest.approx(b), tag
            else:
                assert a == b and type(a) is type(b), tag


@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_wide_table_projections_match_sqlite(batch_size):
    with chunk_rows(batch_size):
        _wide_table_matches_sqlite(batch_size)


def _wide_table_matches_sqlite(batch_size):
    storage = StorageEngine()
    engine = QueryEngine(Catalog(), storage)
    for ddl, chain in zip(WIDE_DDL, WIDE_CHAINS):
        engine.execute(ddl.format(chain=chain))
    w, v = wide_rows(seed=batch_size)
    for name, rows in (("w", w), ("v", v)):
        for row in rows:
            engine.catalog.lookup(name).store.insert(row)
    connection = wide_sqlite(w, v)
    for sql, ordered in WIDE_QUERIES:
        tag = f"chunk length {batch_size} sql={sql!r}"
        theirs = wide_expected(connection, sql)
        assert_wide_rows(engine.execute(sql).rows, theirs, ordered, tag)
        # second run: plan-cache hit, decoder memo hit
        assert_wide_rows(engine.execute(sql).rows, theirs, ordered, tag)
    storage.verify_now()
