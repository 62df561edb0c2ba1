"""Multi-statement transactions: undo logging and table-level 2PL."""

import gc
import threading
import weakref

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.errors import TransactionAborted, TransactionError


@pytest.fixture
def db():
    database = VeriDB(VeriDBConfig(key_seed=77))
    database.sql(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, balance INTEGER, "
        "owner TEXT)"
    )
    database.sql(
        "INSERT INTO acct VALUES (1, 100, 'a'), (2, 200, 'b'), (3, 300, 'c')"
    )
    return database


def test_commit_applies(db):
    session = db.session()
    session.execute("BEGIN")
    session.execute("UPDATE acct SET balance = balance - 50 WHERE id = 1")
    session.execute("UPDATE acct SET balance = balance + 50 WHERE id = 2")
    session.execute("COMMIT")
    assert db.sql("SELECT balance FROM acct ORDER BY id").rows == [
        (50,),
        (250,),
        (300,),
    ]
    db.verify_now()


def test_rollback_undoes_everything(db):
    session = db.session()
    session.execute("BEGIN")
    session.execute("UPDATE acct SET balance = 0")
    session.execute("DELETE FROM acct WHERE id = 3")
    session.execute("INSERT INTO acct VALUES (9, 900, 'z')")
    assert session.execute("SELECT COUNT(*) FROM acct").rows == [(3,)]
    session.execute("ROLLBACK")
    assert db.sql("SELECT * FROM acct ORDER BY id").rows == [
        (1, 100, "a"),
        (2, 200, "b"),
        (3, 300, "c"),
    ]
    db.verify_now()  # the undo replay kept the memory checker consistent


def test_rollback_pk_change(db):
    session = db.session()
    session.execute("BEGIN")
    session.execute("UPDATE acct SET id = 50 WHERE id = 1")
    session.execute("ROLLBACK")
    assert db.sql("SELECT id FROM acct ORDER BY id").rows == [(1,), (2,), (3,)]


def test_statement_failure_aborts(db):
    session = db.session()
    session.execute("BEGIN")
    session.execute("UPDATE acct SET balance = 0 WHERE id = 1")
    with pytest.raises(TransactionAborted):
        # duplicate pk: the multi-row insert fails midway
        session.execute("INSERT INTO acct VALUES (8, 1, 'x'), (2, 1, 'y')")
    assert not session.in_transaction
    # both the partial insert (8) and the earlier update were undone
    assert db.sql("SELECT COUNT(*) FROM acct").rows == [(3,)]
    assert db.sql("SELECT balance FROM acct WHERE id = 1").rows == [(100,)]


def test_begin_nested_rejected(db):
    session = db.session()
    session.execute("BEGIN")
    with pytest.raises(TransactionError):
        session.execute("BEGIN")


def test_commit_without_begin_rejected(db):
    with pytest.raises(TransactionError):
        db.session().execute("COMMIT")
    with pytest.raises(TransactionError):
        db.session().execute("ROLLBACK")


def test_ddl_inside_transaction_rejected(db):
    session = db.session()
    session.execute("BEGIN")
    with pytest.raises(TransactionError):
        session.execute("CREATE TABLE nope (id INTEGER PRIMARY KEY)")
    session.execute("ROLLBACK")


def test_autocommit_outside_transaction(db):
    session = db.session()
    session.execute("INSERT INTO acct VALUES (4, 400, 'd')")
    assert db.sql("SELECT COUNT(*) FROM acct").rows == [(4,)]
    assert not session.in_transaction


def test_start_transaction_alias(db):
    session = db.session()
    session.execute("START TRANSACTION")
    assert session.in_transaction
    session.execute("COMMIT")


def test_context_manager_rolls_back(db):
    with db.session() as session:
        session.execute("BEGIN")
        session.execute("DELETE FROM acct")
    assert db.sql("SELECT COUNT(*) FROM acct").rows == [(3,)]


def test_conflicting_sessions_serialize(db):
    first = db.session(name="first")
    second = db.session(name="second", lock_timeout=0.2)
    first.execute("BEGIN")
    first.execute("UPDATE acct SET balance = 0 WHERE id = 1")
    second.execute("BEGIN")
    with pytest.raises(TransactionAborted):
        second.execute("UPDATE acct SET balance = 1 WHERE id = 2")
    assert not second.in_transaction  # aborted and cleaned up
    first.execute("COMMIT")
    # the lock is free again
    third = db.session(name="third", lock_timeout=0.2)
    third.execute("BEGIN")
    third.execute("UPDATE acct SET balance = 7 WHERE id = 3")
    third.execute("COMMIT")


def test_lock_released_lets_waiter_proceed(db):
    first = db.session(name="first")
    results = []

    def contender():
        session = db.session(name="second", lock_timeout=5.0)
        session.execute("BEGIN")
        session.execute("UPDATE acct SET balance = 999 WHERE id = 1")
        session.execute("COMMIT")
        results.append("done")

    first.execute("BEGIN")
    first.execute("UPDATE acct SET balance = 111 WHERE id = 1")
    thread = threading.Thread(target=contender)
    thread.start()
    first.execute("COMMIT")
    thread.join(timeout=10)
    assert results == ["done"]
    assert db.sql("SELECT balance FROM acct WHERE id = 1").rows == [(999,)]


def test_reads_also_take_locks(db):
    """Serializable: a reader blocks a writer on the same table."""
    reader = db.session(name="reader")
    writer = db.session(name="writer", lock_timeout=0.2)
    reader.execute("BEGIN")
    reader.execute("SELECT COUNT(*) FROM acct")
    writer.execute("BEGIN")
    with pytest.raises(TransactionAborted):
        writer.execute("DELETE FROM acct")
    reader.execute("COMMIT")


def test_subquery_tables_locked(db):
    db.sql("CREATE TABLE other (id INTEGER PRIMARY KEY)")
    db.sql("INSERT INTO other VALUES (1)")
    session = db.session()
    session.execute("BEGIN")
    session.execute(
        "SELECT * FROM acct WHERE id IN (SELECT id FROM other)"
    )
    assert set(session._held) == {"acct", "other"}
    session.execute("COMMIT")


def test_insert_select_transactional(db):
    db.sql("CREATE TABLE archive (id INTEGER PRIMARY KEY, balance INTEGER)")
    session = db.session()
    session.execute("BEGIN")
    session.execute("INSERT INTO archive SELECT id, balance FROM acct")
    session.execute("ROLLBACK")
    assert db.sql("SELECT COUNT(*) FROM archive").rows == [(0,)]


# ----------------------------------------------------------------------
# lock-registry hygiene (DDL-churn leak regression)
# ----------------------------------------------------------------------
def test_lock_registries_die_with_their_engines():
    """An engine's table locks are its own: dropping the database frees
    them, and no later engine (which may reuse the freed address) can
    see a lock an earlier one's session held."""
    refs = []
    for _ in range(20):
        database = VeriDB(VeriDBConfig(key_seed=77))
        database.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        session = database.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1)")
        session.execute("COMMIT")
        refs.append(weakref.ref(session._registry))
        del database, session
    gc.collect()
    assert [ref() for ref in refs] == [None] * 20


def test_drop_table_evicts_txn_lock(db):
    registry = db.engine.txn_locks
    session = db.session()
    session.execute("BEGIN")
    session.execute("SELECT COUNT(*) FROM acct")
    session.execute("COMMIT")
    assert "acct" in registry._locks
    session.execute("DROP TABLE acct")
    assert "acct" not in registry._locks


def test_ddl_churn_does_not_leak_locks(db):
    """A temp-table churn workload must not grow the registry forever."""
    registry = db.engine.txn_locks
    session = db.session()
    baseline = len(registry)
    for i in range(50):
        session.execute(f"CREATE TABLE tmp_{i} (id INTEGER PRIMARY KEY)")
        session.execute("BEGIN")
        session.execute(f"INSERT INTO tmp_{i} VALUES (1)")
        session.execute("COMMIT")
        session.execute(f"DROP TABLE tmp_{i}")
    # every tmp_i lock was evicted with its table
    assert len(registry) == baseline
    assert not any(k.startswith("tmp_") for k in registry._locks)


def test_recreated_table_gets_fresh_lock(db):
    registry = db.engine.txn_locks
    session = db.session()
    session.execute("CREATE TABLE ephemeral (id INTEGER PRIMARY KEY)")
    old = registry.lock_for("ephemeral")
    session.execute("DROP TABLE ephemeral")
    session.execute("CREATE TABLE ephemeral (id INTEGER PRIMARY KEY)")
    assert registry.lock_for("ephemeral") is not old


def test_eviction_safe_while_lock_held(db):
    """A holder keeps its reference; eviction never corrupts release."""
    registry = db.engine.txn_locks
    session = db.session()
    session.execute("BEGIN")
    session.execute("UPDATE acct SET balance = 1 WHERE id = 1")
    # another admin path drops knowledge of the lock mid-transaction
    registry.evict("acct")
    session.execute("COMMIT")  # releases the held reference cleanly
    assert db.sql("SELECT balance FROM acct WHERE id = 1").rows == [(1,)]
