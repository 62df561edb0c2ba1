"""Regression tests for portal replay-state and retry semantics.

Covers two production bugs:

* the replay ledger (formerly an ever-growing ``set``) is now bounded —
  client qids (salt ‖ counter) compress into per-salt intervals;
* a query whose execution *fails* no longer burns its qid, so an honest
  client may retry the same authenticated query.
"""

import threading

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.portal import AuthenticatedQuery, QidLedger
from repro.crypto.mac import MessageAuthenticator
from repro.errors import AuthenticationError
from repro.obs import MetricsRegistry, scoped_registry


@pytest.fixture
def db():
    database = VeriDB(VeriDBConfig(key_seed=1))
    database.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    database.sql("INSERT INTO t VALUES (1, 10), (2, 20)")
    return database


def make_qid(salt: bytes, n: int) -> bytes:
    return salt.ljust(8, b"\0")[:8] + n.to_bytes(8, "little")


def make_query(db, sql, qid=make_qid(b"qid", 1)):
    mac = MessageAuthenticator(db.enclave.keychain.mac_key)
    return AuthenticatedQuery(qid=qid, sql=sql, mac=mac.tag(qid, sql.encode()))


# ----------------------------------------------------------------------
# QidLedger unit behaviour
# ----------------------------------------------------------------------

def test_consecutive_counters_compress_to_one_interval():
    ledger = QidLedger()
    for n in range(10_000):
        ledger.add(make_qid(b"salt-a", n))
    assert ledger.salt_count == 1
    assert ledger.interval_count == 1
    assert ledger.state_size() == 1
    assert make_qid(b"salt-a", 1234) in ledger
    assert make_qid(b"salt-a", 10_000) not in ledger


def test_out_of_order_counters_merge_when_gaps_fill():
    ledger = QidLedger()
    ledger.add(make_qid(b"s", 0))
    ledger.add(make_qid(b"s", 2))
    assert ledger.interval_count == 2
    ledger.add(make_qid(b"s", 1))  # bridges [0,0] and [2,2]
    assert ledger.interval_count == 1
    for n in (0, 1, 2):
        assert make_qid(b"s", n) in ledger


def test_salts_are_independent():
    ledger = QidLedger()
    ledger.add(make_qid(b"aaaa", 5))
    assert make_qid(b"bbbb", 5) not in ledger
    ledger.add(make_qid(b"bbbb", 5))
    assert ledger.salt_count == 2


# ----------------------------------------------------------------------
# bug 1: replay state stays bounded across many client queries
# ----------------------------------------------------------------------
def test_replay_state_does_not_grow_with_query_volume(db):
    client = db.connect()
    for _ in range(300):
        client.execute("SELECT * FROM t WHERE id = 1")
    # 300 queries from one client: one salt, one interval
    assert db.portal.seen_query_count() == 300
    assert db.portal.replay_state_size() == 1


def test_replay_state_gauge_exported():
    with scoped_registry(MetricsRegistry()) as reg:
        database = VeriDB(VeriDBConfig(key_seed=3))
        database.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        client = database.connect()
        for _ in range(50):
            client.execute("SELECT * FROM t")
        snap = reg.snapshot()
        assert snap["portal.qid_ledger_size"]["value"] == 1
        assert snap["portal.qid_salts"]["value"] == 1
        assert snap["portal.queries"]["value"] == 50


def test_replay_still_rejected_after_success(db):
    query = make_query(db, "SELECT * FROM t")
    db.portal.submit(query)
    with pytest.raises(AuthenticationError, match="replay"):
        db.portal.submit(query)


def test_replay_rejected_for_compressed_interval_members(db):
    client = db.connect()
    for _ in range(5):
        client.execute("SELECT * FROM t")
    # re-submit a qid that now lives inside a compressed interval
    replay = make_query(db, "SELECT * FROM t", qid=make_qid(b"x", 1))
    db.portal.submit(replay)
    with pytest.raises(AuthenticationError, match="replay"):
        db.portal.submit(replay)


# ----------------------------------------------------------------------
# bug 2: failed execution leaves the qid retryable
# ----------------------------------------------------------------------
def test_failed_execution_allows_honest_retry(db):
    bad = make_query(db, "SELECT * FROM missing_table", qid=make_qid(b"retry", 0))
    with pytest.raises(Exception):
        db.portal.submit(bad)
    db.sql("CREATE TABLE missing_table (id INTEGER PRIMARY KEY)")
    # the same authenticated query (same qid) must now succeed
    result = db.portal.submit(bad)
    assert result.rowcount == 0
    # ... and only then is the qid burned
    with pytest.raises(AuthenticationError, match="replay"):
        db.portal.submit(bad)


def test_failed_execution_not_counted_as_seen(db):
    bad = make_query(db, "SELECT * FROM nope", qid=make_qid(b"gone", 0))
    with pytest.raises(Exception):
        db.portal.submit(bad)
    assert db.portal.seen_query_count() == 0
    assert db.portal.replay_state_size() == 0


def test_execute_error_metrics():
    with scoped_registry(MetricsRegistry()) as reg:
        database = VeriDB(VeriDBConfig(key_seed=5))
        bad = make_query(database, "SELECT * FROM nope", qid=make_qid(b"x", 1))
        with pytest.raises(Exception):
            database.portal.submit(bad)
        snap = reg.snapshot()
        assert snap["portal.execute_errors"]["value"] == 1
        assert snap["portal.queries"]["value"] == 0


def test_concurrent_duplicate_submission_executes_once(db):
    """While a qid is in flight, a duplicate is rejected, not re-run."""
    release = threading.Event()
    entered = threading.Event()
    original_execute = db.portal._engine.execute

    def slow_execute(sql, **kwargs):
        entered.set()
        release.wait(5)
        return original_execute(sql, **kwargs)

    db.portal._engine.execute = slow_execute
    query = make_query(db, "SELECT * FROM t", qid=make_qid(b"inflight", 0))
    outcomes = []

    def first():
        outcomes.append(("first", db.portal.submit(query)))

    t = threading.Thread(target=first)
    t.start()
    assert entered.wait(5)
    # duplicate arrives while the first copy is still executing
    with pytest.raises(AuthenticationError, match="replay"):
        db.portal.submit(query)
    release.set()
    t.join(5)
    assert len(outcomes) == 1
    assert db.portal.seen_query_count() == 1
