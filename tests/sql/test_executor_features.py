"""EXPLAIN, INSERT…SELECT and executor edge cases."""

import pytest

from repro.catalog.catalog import Catalog
from repro.errors import ExecutionError, PlanningError
from repro.sql.executor import QueryEngine
from repro.storage.engine import StorageEngine


@pytest.fixture
def engine():
    qe = QueryEngine(Catalog(), StorageEngine())
    qe.execute("CREATE TABLE src (id INTEGER PRIMARY KEY, v INTEGER)")
    qe.execute("INSERT INTO src VALUES (1, 10), (2, 20), (3, 30)")
    return qe


# ----------------------------------------------------------------------
# EXPLAIN
# ----------------------------------------------------------------------
def test_explain_statement(engine):
    result = engine.execute("EXPLAIN SELECT * FROM src WHERE id = 2")
    assert result.columns == ["plan"]
    text = "\n".join(r[0] for r in result.rows)
    assert "IndexSearch" in text


def test_explain_does_not_execute(engine):
    stats_before = engine.catalog.lookup("src").store.stats.point_lookups
    engine.execute("EXPLAIN SELECT * FROM src WHERE id = 2")
    stats_after = engine.catalog.lookup("src").store.stats.point_lookups
    assert stats_after == stats_before


def test_explain_respects_hints(engine):
    engine.execute("CREATE TABLE other (id INTEGER PRIMARY KEY)")
    result = engine.execute(
        "EXPLAIN SELECT src.id FROM src, other WHERE src.id = other.id",
        join_hint="merge",
    )
    assert any("MergeJoin" in r[0] for r in result.rows)


# ----------------------------------------------------------------------
# INSERT INTO ... SELECT
# ----------------------------------------------------------------------
def test_insert_select(engine):
    engine.execute("CREATE TABLE dst (id INTEGER PRIMARY KEY, v INTEGER)")
    result = engine.execute(
        "INSERT INTO dst SELECT id, v * 2 FROM src WHERE v >= 20"
    )
    assert result.rowcount == 2
    assert engine.execute("SELECT * FROM dst").rows == [(2, 40), (3, 60)]


def test_insert_select_with_columns(engine):
    engine.execute("CREATE TABLE dst (id INTEGER PRIMARY KEY, v INTEGER)")
    engine.execute("INSERT INTO dst (id) SELECT id + 100 FROM src")
    assert engine.execute("SELECT COUNT(*) FROM dst WHERE v IS NULL").rows == [
        (3,)
    ]


def test_insert_select_arity_mismatch(engine):
    engine.execute("CREATE TABLE dst (id INTEGER PRIMARY KEY, v INTEGER)")
    with pytest.raises(ExecutionError):
        engine.execute("INSERT INTO dst (id, v) SELECT id FROM src")


def test_insert_select_self_snapshot(engine):
    """Inserting a table into itself operates on a pre-read snapshot."""
    result = engine.execute(
        "INSERT INTO src SELECT id + 10, v FROM src"
    )
    assert result.rowcount == 3
    assert engine.execute("SELECT COUNT(*) FROM src").rows == [(6,)]


# ----------------------------------------------------------------------
# misc executor edges
# ----------------------------------------------------------------------
def test_plan_api_select_only(engine):
    plan = engine.plan("SELECT * FROM src")
    assert "SeqScan" in plan.explain()
    with pytest.raises(PlanningError):
        engine.plan("DELETE FROM src")


def test_insert_values_arity_checked(engine):
    with pytest.raises(Exception):
        engine.execute("INSERT INTO src VALUES (9)")


def test_insert_expression_values(engine):
    engine.execute("INSERT INTO src VALUES (4, 2 * 20 + 2)")
    assert engine.execute("SELECT v FROM src WHERE id = 4").rows == [(42,)]


def test_update_expression_uses_row(engine):
    engine.execute("UPDATE src SET v = v + id WHERE id >= 2")
    assert engine.execute("SELECT v FROM src ORDER BY id").rows == [
        (10,),
        (22,),
        (33,),
    ]


def test_delete_rowcount(engine):
    assert engine.execute("DELETE FROM src WHERE v > 15").rowcount == 2


def test_division_by_zero_surfaces(engine):
    with pytest.raises(ZeroDivisionError):
        engine.execute("SELECT v / 0 FROM src")


def test_result_metadata_for_dml(engine):
    result = engine.execute("INSERT INTO src VALUES (99, 0)")
    assert result.columns == []
    assert result.plan is None
    assert result.explain() == ""
