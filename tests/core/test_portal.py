"""Unit tests for the query portal: authorization and endorsement."""

import pytest

from repro.core.database import VeriDB
from repro.core.config import VeriDBConfig
from repro.core.portal import AuthenticatedQuery, digest_result
from repro.crypto.mac import MessageAuthenticator
from repro.errors import AuthenticationError


@pytest.fixture
def db():
    database = VeriDB(VeriDBConfig(key_seed=1))
    database.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    database.sql("INSERT INTO t VALUES (1, 10), (2, 20)")
    return database


def qid_of(salt: bytes, n: int = 0) -> bytes:
    """A well-formed qid: 8-byte salt ‖ 8-byte little-endian counter."""
    return salt.ljust(8, b"\0")[:8] + n.to_bytes(8, "little")


def make_query(db, sql, qid=qid_of(b"qid", 1)):
    mac = MessageAuthenticator(db.enclave.keychain.mac_key)
    return AuthenticatedQuery(qid=qid, sql=sql, mac=mac.tag(qid, sql.encode()))


def test_authorized_query_executes(db):
    result = db.portal.submit(make_query(db, "SELECT * FROM t"))
    assert result.rowcount == 2
    assert result.sequence_number == 1


def test_sequence_numbers_increase(db):
    r1 = db.portal.submit(make_query(db, "SELECT * FROM t", qid=qid_of(b"q", 1)))
    r2 = db.portal.submit(make_query(db, "SELECT * FROM t", qid=qid_of(b"q", 2)))
    assert r2.sequence_number > r1.sequence_number


def test_forged_mac_rejected(db):
    query = AuthenticatedQuery(
        qid=qid_of(b"evil"), sql="DELETE FROM t", mac=b"\x00" * 32
    )
    with pytest.raises(AuthenticationError):
        db.portal.submit(query)
    # and the data was not touched
    assert db.sql("SELECT COUNT(*) FROM t").rows == [(2,)]


def test_replayed_qid_rejected(db):
    query = make_query(db, "SELECT * FROM t")
    db.portal.submit(query)
    with pytest.raises(AuthenticationError):
        db.portal.submit(query)


def test_tampered_sql_rejected(db):
    genuine = make_query(db, "SELECT * FROM t")
    tampered = AuthenticatedQuery(
        qid=genuine.qid, sql="DELETE FROM t", mac=genuine.mac
    )
    with pytest.raises(AuthenticationError):
        db.portal.submit(tampered)


def test_endorsement_binds_result(db):
    result = db.portal.submit(make_query(db, "SELECT * FROM t"))
    mac = MessageAuthenticator(db.enclave.keychain.mac_key)
    assert mac.verify(
        result.endorsement,
        result.qid,
        result.sequence_number.to_bytes(8, "little"),
        result.result_digest,
    )
    assert result.result_digest == digest_result(
        result.columns, result.rows, result.rowcount
    )


def test_digest_sensitive_to_rows():
    a = digest_result(("c",), ((1,),), 1)
    b = digest_result(("c",), ((2,),), 1)
    assert a != b


def test_seen_query_count(db):
    assert db.portal.seen_query_count() == 0
    db.portal.submit(make_query(db, "SELECT * FROM t"))
    assert db.portal.seen_query_count() == 1


# ----------------------------------------------------------------------
# degenerate qids and the exact replay ledger
# ----------------------------------------------------------------------
def test_empty_qid_rejected(db):
    from repro.obs import MetricsRegistry, scoped_registry

    with scoped_registry(MetricsRegistry()) as registry:
        database = VeriDB(VeriDBConfig(key_seed=1))
        database.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        with pytest.raises(AuthenticationError, match="degenerate"):
            database.portal.submit(make_query(database, "SELECT * FROM t", qid=b""))
        assert registry.counter("portal.degenerate_qids").value == 1
        assert registry.counter("portal.auth_failures").value == 1


def test_oversized_qid_rejected():
    """Only salt ‖ counter is a qid: any other length is refused, even
    under a valid MAC, before the MAC is checked."""
    from repro.obs import MetricsRegistry, scoped_registry

    with scoped_registry(MetricsRegistry()) as registry:
        database = VeriDB(VeriDBConfig(key_seed=1))
        database.sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        for size in (1, 8, 15, 17, 64):
            with pytest.raises(AuthenticationError, match="degenerate"):
                database.portal.submit(
                    make_query(database, "SELECT * FROM t", qid=b"x" * size)
                )
        assert registry.counter("portal.degenerate_qids").value == 5
        assert database.portal.seen_query_count() == 0
        # the 16-byte layout is accepted
        edge = make_query(database, "SELECT * FROM t", qid=b"x" * 16)
        assert database.portal.submit(edge).rowcount == 0


def test_degenerate_qid_never_reaches_ledger(db):
    with pytest.raises(AuthenticationError):
        db.portal.submit(make_query(db, "SELECT * FROM t", qid=b""))
    assert db.portal.seen_query_count() == 0


def test_structured_qids_never_evict():
    from repro.core.portal import QidLedger

    ledger = QidLedger()
    for i in range(1000):
        ledger.add(qid_of(b"s", i))
    assert all(qid_of(b"s", i) in ledger for i in range(1000))
    assert ledger.state_size() == 1


def test_replay_rejection_is_typed(db):
    from repro.errors import QueryReplayError

    query = make_query(db, "SELECT * FROM t")
    db.portal.submit(query)
    with pytest.raises(QueryReplayError) as caught:
        db.portal.submit(query)
    assert caught.value.qid == query.qid
    # back-compat: existing except AuthenticationError handlers still fire
    assert isinstance(caught.value, AuthenticationError)
