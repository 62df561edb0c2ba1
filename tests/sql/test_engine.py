"""End-to-end SQL engine tests over verifiable storage."""

import pytest

from repro.catalog.catalog import Catalog
from repro.errors import CatalogError, PlanningError
from repro.sql.executor import QueryEngine
from repro.sql.explain import explain_analyze
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine


@pytest.fixture
def engine():
    storage = StorageEngine(StorageConfig())
    qe = QueryEngine(Catalog(), storage)
    qe.execute(
        "CREATE TABLE quote (id INTEGER PRIMARY KEY, count INTEGER NOT NULL, "
        "price INTEGER, CHAIN (count))"
    )
    qe.execute(
        "CREATE TABLE inventory (id INTEGER PRIMARY KEY, count INTEGER, "
        "descr TEXT)"
    )
    # the paper's running example (Figure 8)
    qe.execute(
        "INSERT INTO quote VALUES (1, 100, 100), (2, 100, 200), "
        "(3, 500, 100), (4, 600, 100)"
    )
    qe.execute(
        "INSERT INTO inventory VALUES (1, 50, 'desc1'), (3, 200, 'desc3'), "
        "(4, 100, 'desc4'), (6, 100, 'desc6')"
    )
    return qe


def test_select_star(engine):
    result = engine.execute("SELECT * FROM quote")
    assert result.rowcount == 4
    assert result.rows[0] == (1, 100, 100)


def test_projection_and_alias(engine):
    result = engine.execute("SELECT id AS quote_id, price FROM quote")
    assert result.columns == ["quote_id", "price"]
    assert result.rows[0] == (1, 100)


def test_point_lookup_plan_and_result(engine):
    result = engine.execute("SELECT * FROM quote WHERE id = 3")
    assert result.rows == [(3, 500, 100)]
    assert "IndexSearch" in result.explain()


def test_point_lookup_miss(engine):
    result = engine.execute("SELECT * FROM quote WHERE id = 99")
    assert result.rows == []


def test_range_scan_plan(engine):
    result = engine.execute("SELECT id FROM quote WHERE id BETWEEN 2 AND 3")
    assert [r[0] for r in result.rows] == [2, 3]
    assert "RangeScan" in result.explain()


def test_range_on_secondary_chain(engine):
    result = engine.execute("SELECT id FROM quote WHERE count >= 500")
    assert sorted(r[0] for r in result.rows) == [3, 4]
    assert "RangeScan" in result.explain()
    assert "count" in result.explain()


def test_filter_on_unchained_column_uses_seqscan(engine):
    result = engine.execute("SELECT id FROM quote WHERE price = 100")
    assert sorted(r[0] for r in result.rows) == [1, 3, 4]
    assert "SeqScan" in result.explain()


def test_paper_example_query(engine):
    """Example 5.4: quotes exceeding the current inventory balance."""
    result = engine.execute(
        "SELECT q.id, q.count, i.count FROM quote AS q, inventory AS i "
        "WHERE q.id = i.id AND q.count > i.count"
    )
    assert sorted(result.rows) == [(1, 100, 50), (3, 500, 200), (4, 600, 100)]


def test_join_hints_agree(engine):
    sql = (
        "SELECT q.id FROM quote q, inventory i "
        "WHERE q.id = i.id AND q.count > i.count"
    )
    expected = sorted(engine.execute(sql).rows)
    for hint in ("merge", "nested_loop", "hash", "index_nl"):
        assert sorted(engine.execute(sql, join_hint=hint).rows) == expected


def test_index_nl_join_default_on_pk(engine):
    result = engine.execute(
        "SELECT q.id FROM quote q, inventory i WHERE q.id = i.id"
    )
    assert "IndexNLJoin" in result.explain()
    assert sorted(r[0] for r in result.rows) == [1, 3, 4]


def test_explicit_join_syntax(engine):
    result = engine.execute(
        "SELECT q.id FROM quote q JOIN inventory i ON q.id = i.id"
    )
    assert sorted(r[0] for r in result.rows) == [1, 3, 4]


def test_aggregates_global(engine):
    result = engine.execute(
        "SELECT COUNT(*), SUM(count), MIN(price), MAX(price), AVG(count) "
        "FROM quote"
    )
    assert result.rows == [(4, 1300, 100, 200, 325.0)]


def test_group_by_having(engine):
    result = engine.execute(
        "SELECT price, COUNT(*) AS n FROM quote GROUP BY price "
        "HAVING COUNT(*) > 1"
    )
    assert result.rows == [(100, 3)]
    assert result.columns == ["price", "n"]


def test_group_by_empty_input(engine):
    result = engine.execute("SELECT COUNT(*) FROM quote WHERE id > 100")
    assert result.rows == [(0,)]


def test_order_by_and_limit(engine):
    result = engine.execute("SELECT id FROM quote ORDER BY count DESC, id LIMIT 2")
    assert [r[0] for r in result.rows] == [4, 3]


def test_order_by_alias(engine):
    result = engine.execute(
        "SELECT id, count * 2 AS doubled FROM quote ORDER BY doubled DESC LIMIT 1"
    )
    assert result.rows == [(4, 1200)]


def test_count_distinct(engine):
    result = engine.execute("SELECT COUNT(DISTINCT price) FROM quote")
    assert result.rows == [(2,)]


def test_update_statement(engine):
    result = engine.execute("UPDATE quote SET price = price + 10 WHERE id = 1")
    assert result.rowcount == 1
    assert engine.execute("SELECT price FROM quote WHERE id = 1").rows == [(110,)]


def test_update_all_rows(engine):
    result = engine.execute("UPDATE quote SET price = 0")
    assert result.rowcount == 4


def test_delete_statement(engine):
    result = engine.execute("DELETE FROM quote WHERE count = 100")
    assert result.rowcount == 2
    assert engine.execute("SELECT COUNT(*) FROM quote").rows == [(2,)]


def test_delete_all(engine):
    assert engine.execute("DELETE FROM quote").rowcount == 4
    assert engine.execute("SELECT COUNT(*) FROM quote").rows == [(0,)]


def test_insert_with_column_list(engine):
    engine.execute("INSERT INTO quote (id, count) VALUES (9, 7)")
    assert engine.execute("SELECT * FROM quote WHERE id = 9").rows == [(9, 7, None)]


def test_in_and_like(engine):
    result = engine.execute("SELECT id FROM inventory WHERE descr LIKE 'desc%'")
    assert result.rowcount == 4
    result = engine.execute("SELECT id FROM quote WHERE id IN (1, 4, 7)")
    assert sorted(r[0] for r in result.rows) == [1, 4]


def test_is_null_filter(engine):
    engine.execute("INSERT INTO quote (id, count) VALUES (10, 5)")
    result = engine.execute("SELECT id FROM quote WHERE price IS NULL")
    assert result.rows == [(10,)]


def test_drop_table(engine):
    engine.execute("DROP TABLE inventory")
    with pytest.raises(CatalogError):
        engine.execute("SELECT * FROM inventory")


def test_create_requires_pk(engine):
    with pytest.raises(PlanningError):
        engine.execute("CREATE TABLE nopk (a INTEGER)")


def test_unknown_column_rejected(engine):
    with pytest.raises(PlanningError):
        engine.execute("SELECT ghost FROM quote")


def test_ambiguous_column_rejected(engine):
    with pytest.raises(PlanningError):
        engine.execute(
            "SELECT count FROM quote q, inventory i WHERE q.id = i.id"
        )


def test_select_star_grouped_rejected(engine):
    with pytest.raises(PlanningError):
        engine.execute("SELECT * FROM quote GROUP BY price")


def test_scan_other_timing_split(engine):
    analyzed = explain_analyze(engine, "SELECT COUNT(*) FROM quote")
    seconds = analyzed.seconds()
    assert seconds["total_s"] > 0
    assert seconds["scan_s"] > 0
    assert seconds["other_s"] > 0
    # own shares telescope: the split is the top node's inclusive time
    assert seconds["scan_s"] + seconds["other_s"] == pytest.approx(
        seconds["total_s"]
    )


def test_verification_passes_after_sql_workload(engine):
    engine.execute("UPDATE quote SET price = 1 WHERE id = 2")
    engine.execute("DELETE FROM quote WHERE id = 3")
    engine.storage.verify_now()


def test_expression_projection(engine):
    result = engine.execute("SELECT id * 10 + 1 FROM quote WHERE id = 2")
    assert result.rows == [(21,)]
    assert result.columns == ["col0"]
