"""TPC-H generator and query tests (small scale)."""

import datetime

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.sql.operators import FusedScanFilterProjectOp, RangeScanOp, SeqScanOp
from repro.workloads.tpch import (
    QUERIES,
    QUERY_1,
    QUERY_6,
    QUERY_19,
    TPCHGenerator,
    load_tpch,
)

SF = 0.0002  # 1200 lineitems, 40 parts — enough for plan coverage


@pytest.fixture(scope="module")
def db():
    database = VeriDB(VeriDBConfig(key_seed=20))
    counts = load_tpch(database, scale_factor=SF, seed=1)
    assert counts["lineitem"] == int(6_000_000 * SF)
    assert counts["part"] == int(200_000 * SF)
    return database


def test_generator_deterministic():
    a = list(TPCHGenerator(0.0001, seed=2).lineitems())
    b = list(TPCHGenerator(0.0001, seed=2).lineitems())
    assert a == b


def test_generator_value_domains():
    for row in TPCHGenerator(0.0001, seed=3).lineitems():
        assert 1 <= row[5] <= 50  # quantity
        assert 0.0 <= row[7] <= 0.10  # discount
        assert row[9] in ("R", "A", "N")
        assert row[10] in ("O", "F")
        assert isinstance(row[11], datetime.date)


def test_q1_matches_reference(db):
    """Q1 through the verified engine equals a plain-Python evaluation."""
    rows = list(TPCHGenerator(SF, seed=1).lineitems())
    cutoff = datetime.date(1998, 9, 2)
    expected: dict = {}
    for row in rows:
        if row[11] > cutoff:
            continue
        key = (row[9], row[10])
        acc = expected.setdefault(key, [0.0, 0.0, 0.0, 0.0, 0])
        qty, price, disc, tax = row[5], row[6], row[7], row[8]
        acc[0] += qty
        acc[1] += price
        acc[2] += price * (1 - disc)
        acc[3] += price * (1 - disc) * (1 + tax)
        acc[4] += 1
    result = db.sql(QUERY_1)
    assert len(result.rows) == len(expected)
    for row in result.rows:
        key = (row[0], row[1])
        acc = expected[key]
        assert row[2] == pytest.approx(acc[0])
        assert row[3] == pytest.approx(acc[1])
        assert row[4] == pytest.approx(acc[2])
        assert row[5] == pytest.approx(acc[3])
        assert row[9] == acc[4]
    # ordered by the group keys
    assert [(r[0], r[1]) for r in result.rows] == sorted(expected)


def scan_of(plan):
    """The base-table scan under a plan's fused filter, and that filter."""
    (fused,) = [op for op in plan.walk() if isinstance(op, FusedScanFilterProjectOp)]
    return fused.children[0], fused


def test_q1_scans_the_primary_chain_and_q6_the_shipdate_range(db):
    """Q1's range covers ~97 % of lineitem: a sequential scan under a
    fused ``l_shipdate`` filter reads it in heap order. Q6's ~15 % stays
    a range scan on the ``l_shipdate`` chain."""
    scan, fused = scan_of(db.sql(QUERY_1).plan)
    assert isinstance(scan, SeqScanOp)
    assert scan.chosen_over[0] == "l_shipdate"
    assert [repr(p) for p in fused.predicates] == [
        "(lineitem.l_shipdate <= Lit(datetime.date(1998, 9, 2)))"
    ]
    scan, _ = scan_of(db.sql(QUERY_6).plan)
    assert isinstance(scan, RangeScanOp) and scan.column == "l_shipdate"


def test_prepared_shipdate_range_scans_and_filters(db):
    """``?`` bounds are never scan bounds: the range the chain could
    serve is the whole table, so the planner reads lineitem in heap
    order and filters — with the answer of the literal statement."""
    sql = "SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= ? AND l_shipdate < ?"
    lo, hi = datetime.date(1994, 1, 1), datetime.date(1995, 1, 1)
    result = db.sql(sql, params=(lo, hi))
    scan, fused = scan_of(result.plan)
    assert isinstance(scan, SeqScanOp) and len(fused.predicates) == 2
    expected = sum(
        lo <= row[11] < hi for row in TPCHGenerator(SF, seed=1).lineitems()
    )
    assert result.rows == [(expected,)]
    literal = sql.replace("?", "DATE '1994-01-01'", 1).replace("?", "DATE '1995-01-01'")
    assert db.sql(literal).rows == [(expected,)]


def test_q6_matches_reference(db):
    rows = list(TPCHGenerator(SF, seed=1).lineitems())
    expected = sum(
        row[6] * row[7]
        for row in rows
        if datetime.date(1994, 1, 1) <= row[11] < datetime.date(1995, 1, 1)
        and 0.05 <= row[7] <= 0.07
        and row[5] < 24
    )
    result = db.sql(QUERY_6)
    value = result.rows[0][0]
    if expected == 0:
        assert value is None or value == 0
    else:
        assert value == pytest.approx(expected)


def test_q19_plans_agree(db):
    merge = db.sql(QUERY_19, join_hint="merge").rows[0][0]
    nested = db.sql(QUERY_19, join_hint="nested_loop").rows[0][0]
    assert merge == nested or merge == pytest.approx(nested)


def test_q19_matches_reference(db):
    lineitems = list(TPCHGenerator(SF, seed=1).lineitems())
    parts = {p[0]: p for p in TPCHGenerator(SF, seed=1).parts()}
    sm = ("SM CASE", "SM BOX", "SM PACK", "SM PKG")
    med = ("MED BAG", "MED BOX", "MED PKG", "MED PACK")
    lg = ("LG CASE", "LG BOX", "LG PACK", "LG PKG")
    expected = 0.0
    matched = False
    for row in lineitems:
        part = parts[row[2]]
        if row[14] != "DELIVER IN PERSON" or row[15] not in ("AIR", "AIR REG"):
            continue
        qty, size = row[5], part[5]
        ok = (
            (part[3] == "Brand#12" and part[6] in sm and 1 <= qty <= 11 and 1 <= size <= 5)
            or (part[3] == "Brand#23" and part[6] in med and 10 <= qty <= 20 and 1 <= size <= 10)
            or (part[3] == "Brand#34" and part[6] in lg and 20 <= qty <= 30 and 1 <= size <= 15)
        )
        if ok:
            expected += row[6] * (1 - row[7])
            matched = True
    result = db.sql(QUERY_19, join_hint="merge")
    value = result.rows[0][0]
    if matched:
        assert value == pytest.approx(expected)
    else:
        assert value is None or value == 0


def test_queries_registry():
    assert set(QUERIES) == {"Q1", "Q6", "Q19"}


def test_verification_after_analytics(db):
    db.sql(QUERY_6)
    db.verify_now()


# ----------------------------------------------------------------------
# the compiled decoder's miss rate and the projection, as counters
# ----------------------------------------------------------------------
def test_lineitem_scans_stay_on_the_compiled_decoder():
    """A full ``lineitem`` scan hands the generic decoder at most the
    scanned chain's ``⊥`` head plus the record ending each chain in
    ``⊤`` — so a nullable column (``l_comment``) or any other shape
    drift that sent every record down the slow path cannot go
    unnoticed."""
    from repro.obs import MetricsRegistry, scoped_registry

    registry = MetricsRegistry()
    with scoped_registry(registry):
        database = VeriDB(VeriDBConfig(key_seed=20))
        load_tpch(database, scale_factor=SF, seed=1)
    lineitem = database.table("lineitem")
    n_rows = int(6_000_000 * SF)

    def counters():
        return (
            registry.counter("storage.decode_fallbacks").value,
            registry.counter("storage.fields_skipped").value,
        )

    # all a full-width scan leaves unread is what the other chain's
    # (key, nKey) holds beyond the row's own values
    for (chain_id, column), unread in zip(enumerate(lineitem.layout.chains), (3, 1)):
        assert lineitem.layout.scan_plan(chain_id).fields_skipped == unread
        before = counters()
        assert len(lineitem.scan(column)) == n_rows
        fallbacks, skipped = (b - a for a, b in zip(before, counters()))
        assert 1 <= fallbacks <= lineitem.layout.n_chains + 1
        assert skipped == (n_rows + 1 - fallbacks) * unread

    before = counters()
    database.sql(QUERY_1)
    fallbacks, skipped = (b - a for a, b in zip(before, counters()))
    assert fallbacks <= lineitem.layout.n_chains + 1
    # Q1 reads 7 of 17 columns off the l_shipdate chain: of a record's
    # 22 stored values it leaves 11 alone
    assert skipped >= 11 * (n_rows - 100)
