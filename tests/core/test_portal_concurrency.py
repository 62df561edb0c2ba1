"""Concurrent clients through the portal (ECall path)."""

import threading

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.workloads.runner import run_threaded


@pytest.fixture
def db():
    database = VeriDB(VeriDBConfig(key_seed=44))
    database.sql(
        "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"
    )
    for i in range(50):
        database.sql(f"INSERT INTO kv VALUES ({i}, {i})")
    return database


def test_concurrent_clients_all_verified(db):
    def worker(index):
        client = db.connect(name=f"c{index}")
        for i in range(25):
            result = client.execute(f"SELECT v FROM kv WHERE k = {i}")
            assert result.rows == ((i,),)
        return client.queries_verified

    _, total = run_threaded(worker, 4)
    assert total == 100
    assert db.portal.seen_query_count() == 100


def test_sequence_numbers_globally_unique_under_concurrency(db):
    seen = set()
    lock = threading.Lock()

    def worker(index):
        client = db.connect(name=f"c{index}")
        for _ in range(30):
            result = client.execute("SELECT COUNT(*) FROM kv")
            with lock:
                assert result.sequence_number not in seen
                seen.add(result.sequence_number)
        return 1

    run_threaded(worker, 4)
    assert len(seen) == 120


def test_concurrent_writes_through_portal(db):
    def worker(index):
        client = db.connect(name=f"w{index}")
        base = 1000 + index * 100
        for i in range(20):
            client.execute(f"INSERT INTO kv VALUES ({base + i}, 0)")
        return 1

    run_threaded(worker, 3)
    assert db.sql("SELECT COUNT(*) FROM kv").rows == [(50 + 60,)]
    db.verify_now()


def test_ecall_count_matches_queries(db):
    before = db.enclave.meter.snapshot()["ecalls"]

    def worker(index):
        client = db.connect(name=f"e{index}")
        for _ in range(10):
            client.execute("SELECT COUNT(*) FROM kv")
        return 1

    run_threaded(worker, 2)
    after = db.enclave.meter.snapshot()["ecalls"]
    assert after - before == 20  # exactly one boundary crossing per query


# ----------------------------------------------------------------------
# replay, reservation and sampling under interleaving
# ----------------------------------------------------------------------
def _make_query(db, sql, qid):
    from repro.core.portal import AuthenticatedQuery
    from repro.crypto.mac import MessageAuthenticator

    mac = MessageAuthenticator(db.enclave.keychain.mac_key)
    return AuthenticatedQuery(qid=qid, sql=sql, mac=mac.tag(qid, sql.encode()))


def test_concurrent_same_qid_exactly_one_success(db):
    """N racing submissions of one qid: one executes, N-1 are replays."""
    from repro.errors import QueryReplayError

    query = _make_query(db, "SELECT COUNT(*) FROM kv", qid=b"race" * 4)
    barrier = threading.Barrier(8)
    outcomes = []
    lock = threading.Lock()

    def racer(_index):
        barrier.wait()
        try:
            db.portal.submit(query)
            verdict = "ok"
        except QueryReplayError:
            verdict = "replay"
        with lock:
            outcomes.append(verdict)
        return 1

    run_threaded(racer, 8)
    assert sorted(outcomes) == ["ok"] + ["replay"] * 7
    assert db.portal.seen_query_count() == 1


def test_pending_reservation_blocks_in_flight_duplicate(db):
    """A qid is unavailable the moment it is admitted, not on completion."""
    from repro.errors import QueryReplayError

    started = threading.Event()
    release = threading.Event()
    inner = db.portal._engine

    class GatedEngine:
        def execute(self, sql, **kwargs):
            started.set()
            assert release.wait(timeout=10)
            return inner.execute(sql, **kwargs)

    db.portal._engine = GatedEngine()
    try:
        query = _make_query(db, "SELECT COUNT(*) FROM kv", qid=b"pend" * 4)
        first = threading.Thread(target=db.portal.submit, args=(query,))
        first.start()
        assert started.wait(timeout=10)
        # the first submission is still executing; its qid is reserved
        with pytest.raises(QueryReplayError):
            db.portal.submit(query)
    finally:
        release.set()
        first.join(timeout=10)
        db.portal._engine = inner
    assert db.portal.seen_query_count() == 1


def test_failed_execution_leaves_qid_retryable(db):
    """The reserve-don't-record protocol: errors unburn the qid."""
    from repro.errors import VeriDBError

    qid = b"oops" * 4
    bad = _make_query(db, "SELECT nope FROM missing", qid=qid)
    with pytest.raises(VeriDBError):
        db.portal.submit(bad)
    # the honest client fixes its query and retries under the same qid
    good = _make_query(db, "SELECT COUNT(*) FROM kv", qid=qid)
    assert db.portal.submit(good).rowcount == 1


def test_sequence_numbers_contiguous_under_concurrency(db):
    """Strict uniqueness: N queries burn exactly sequence numbers 1..N."""
    seen = set()
    lock = threading.Lock()

    def worker(index):
        for i in range(25):
            qid = bytes([index]) * 8 + i.to_bytes(8, "little")
            result = db.portal.submit(
                _make_query(db, "SELECT COUNT(*) FROM kv", qid=qid)
            )
            with lock:
                seen.add(result.sequence_number)
        return 1

    run_threaded(worker, 4)
    assert seen == set(range(1, 101))


def test_trace_sampling_deterministic_under_interleaving():
    """Sampled-trace count depends only on query count, never on timing."""
    from repro.obs import MetricsRegistry, scoped_registry

    for attempt in range(3):
        with scoped_registry(MetricsRegistry()) as registry:
            database = VeriDB(
                VeriDBConfig(key_seed=44, trace_sample_rate=0.25)
            )
            database.sql("CREATE TABLE kv (k INTEGER PRIMARY KEY)")
            database.sql("INSERT INTO kv VALUES (1)")

            def worker(index):
                for i in range(20):
                    qid = bytes([index + 1]) * 8 + i.to_bytes(8, "little")
                    database.portal.submit(
                        _make_query(database, "SELECT COUNT(*) FROM kv", qid=qid)
                    )
                return 1

            run_threaded(worker, 4)
            assert registry.counter("portal.traces_sampled").value == 20
