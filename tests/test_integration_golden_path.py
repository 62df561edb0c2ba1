"""Golden-path integration: the whole system working together.

One test class = one scenario exercising multiple subsystems end to
end: attested clients, SQL with joins/subqueries/transactions, spilling,
continuous verification, recovery, and forensics after an attack.
"""

import pytest

from repro import (
    StorageConfig,
    VeriDB,
    VeriDBConfig,
    VerificationFailure,
)
from repro.core.incident import investigate
from repro.core.recovery import recover_from_wal, snapshot_database
from repro.memory.adversary import Adversary
from repro.memory.cells import make_addr


@pytest.fixture
def db():
    config = VeriDBConfig(
        storage=StorageConfig(spill_threshold_rows=32),
        ops_per_page_scan=200,
        key_seed=99,
    )
    database = VeriDB(config)
    client = database.connect(name="ops")
    client.execute(
        "CREATE TABLE customers (id INTEGER PRIMARY KEY, region TEXT, "
        "tier INTEGER NOT NULL, CHAIN (tier))"
    )
    client.execute(
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INTEGER, "
        "amount INTEGER, placed DATE, CHAIN (placed))"
    )
    for i in range(40):
        client.execute(
            f"INSERT INTO customers VALUES ({i}, 'r{i % 4}', {i % 3})"
        )
    for i in range(200):
        day = 1 + i % 28
        client.execute(
            f"INSERT INTO orders VALUES ({i}, {i % 40}, {(i * 37) % 500}, "
            f"DATE '2021-03-{day:02d}')"
        )
    return database, client


def test_analytics_through_attested_client(db):
    database, client = db
    result = client.execute(
        "SELECT c.region, COUNT(*) AS n, SUM(o.amount) AS total "
        "FROM orders o JOIN customers c ON o.cust = c.id "
        "WHERE o.placed BETWEEN DATE '2021-03-05' AND DATE '2021-03-20' "
        "AND c.tier IN (SELECT tier FROM customers WHERE id < 10) "
        "GROUP BY c.region ORDER BY total DESC"
    )
    assert result.rowcount == 4
    totals = [row[2] for row in result.rows]
    assert totals == sorted(totals, reverse=True)
    database.verify_now()


def test_spilled_sort_through_client(db):
    database, client = db
    result = client.execute("SELECT amount FROM orders ORDER BY amount")
    values = [r[0] for r in result.rows]
    assert values == sorted(values)
    assert database.engine.spill.stats.sort_runs > 1  # it really spilled
    database.verify_now()


def test_transactional_maintenance_then_recovery(db, tmp_path):
    database, client = db
    session = database.session(name="maintenance")
    session.execute("BEGIN")
    session.execute("UPDATE orders SET amount = amount + 1 WHERE id < 100")
    session.execute("DELETE FROM orders WHERE id >= 190")
    session.execute("COMMIT")
    before = database.sql("SELECT COUNT(*), SUM(amount) FROM orders").rows

    path = tmp_path / "replica"
    snapshot_database(database, path)
    recovered = recover_from_wal(path, VeriDBConfig(key_seed=99))
    assert recovered.sql("SELECT COUNT(*), SUM(amount) FROM orders").rows == before
    # verified range access works on the recovered chains
    assert recovered.sql(
        "SELECT COUNT(*) FROM orders WHERE placed >= DATE '2021-03-27'"
    ).rows == database.sql(
        "SELECT COUNT(*) FROM orders WHERE placed >= DATE '2021-03-27'"
    ).rows


def test_attack_detect_investigate(db):
    database, client = db
    table = database.table("orders")
    rid = table.indexes[0].search(17)
    page = table.heap.get_page(rid.page_id)
    offset, _ = page.slot_offset_for_compaction(rid.slot)
    addr = make_addr(rid.page_id, offset)
    Adversary(database.storage.memory).corrupt(addr, b"\x99" * 24)
    with pytest.raises(VerificationFailure) as excinfo:
        database.verify_now()
    report = investigate(database, excinfo.value)
    assert report.localized
    assert any(a.table == "orders" for a in report.anomalies)


def test_continuous_verification_ran(db):
    database, client = db
    # the op-count trigger was active during the whole fixture load
    assert database.storage.verifier.stats.pages_scanned > 0
    # audit state persists across a client handover
    blob = client.export_audit_state()
    successor = database.connect(name="successor", audit_state=blob)
    successor.execute("SELECT COUNT(*) FROM customers")
    assert successor.queries_verified > client.queries_verified