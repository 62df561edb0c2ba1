"""Top-N fusion of ORDER BY + LIMIT."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.sql.executor import QueryEngine
from repro.storage.engine import StorageEngine


@pytest.fixture
def engine():
    qe = QueryEngine(Catalog(), StorageEngine())
    qe.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, w INTEGER)")
    for i in range(50):
        qe.execute(f"INSERT INTO t VALUES ({i}, {(i * 17) % 23}, {i % 3})")
    return qe


def test_topn_plan_chosen(engine):
    result = engine.execute("SELECT id FROM t ORDER BY v LIMIT 5")
    assert "TopN" in result.explain()
    assert "Limit" not in result.explain()


def test_topn_matches_full_sort(engine):
    fused = engine.execute("SELECT v, id FROM t ORDER BY v, id LIMIT 7").rows
    full = engine.execute("SELECT v, id FROM t ORDER BY v, id").rows[:7]
    assert fused == full


def test_topn_descending(engine):
    rows = engine.execute("SELECT v FROM t ORDER BY v DESC LIMIT 3").rows
    all_values = sorted(
        (r[0] for r in engine.execute("SELECT v FROM t").rows), reverse=True
    )
    assert [r[0] for r in rows] == all_values[:3]


def test_topn_mixed_directions(engine):
    fused = engine.execute(
        "SELECT w, v FROM t ORDER BY w ASC, v DESC LIMIT 10"
    ).rows
    full = engine.execute("SELECT w, v FROM t ORDER BY w ASC, v DESC").rows
    assert fused == full[:10]


def test_topn_star(engine):
    result = engine.execute("SELECT * FROM t ORDER BY v LIMIT 4")
    assert "TopN" in result.explain()
    assert len(result.rows) == 4


def test_topn_larger_than_input(engine):
    result = engine.execute("SELECT id FROM t ORDER BY id LIMIT 500")
    assert len(result.rows) == 50


def test_topn_zero_limit(engine):
    assert engine.execute("SELECT id FROM t ORDER BY id LIMIT 0").rows == []


def test_distinct_disables_fusion(engine):
    result = engine.execute("SELECT DISTINCT w FROM t ORDER BY w LIMIT 2")
    assert "TopN" not in result.explain()
    assert [r[0] for r in result.rows] == [0, 1]


def test_topn_with_nulls(engine):
    engine.execute(
        "CREATE TABLE n (id INTEGER PRIMARY KEY, x INTEGER)"
    )
    engine.execute("INSERT INTO n VALUES (1, 5), (2, NULL), (3, 1)")
    rows = engine.execute("SELECT x FROM n ORDER BY x LIMIT 2").rows
    assert rows == [(None,), (1,)]  # NULLs first on ascending


def test_topn_over_aggregate(engine):
    fused = engine.execute(
        "SELECT w, SUM(v) AS s FROM t GROUP BY w ORDER BY s DESC LIMIT 2"
    ).rows
    full = engine.execute(
        "SELECT w, SUM(v) AS s FROM t GROUP BY w ORDER BY s DESC"
    ).rows
    assert fused == full[:2]


@settings(max_examples=30)
@given(
    values=st.lists(st.integers(0, 100), min_size=1, max_size=40),
    limit=st.integers(1, 10),
    descending=st.booleans(),
)
def test_topn_property(values, limit, descending):
    qe = QueryEngine(Catalog(), StorageEngine())
    qe.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, v INTEGER)")
    for i, v in enumerate(values):
        qe.execute(f"INSERT INTO p VALUES ({i}, {v})")
    direction = "DESC" if descending else "ASC"
    rows = qe.execute(
        f"SELECT v FROM p ORDER BY v {direction} LIMIT {limit}"
    ).rows
    expected = sorted(values, reverse=descending)[:limit]
    assert [r[0] for r in rows] == expected
