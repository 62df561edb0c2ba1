"""Concurrency: portal submissions race the background verifier.

Multiple client threads hammer :meth:`QueryPortal.submit` — including
deliberate replays — while background verification passes run. At the
end, the observability counters must reconcile exactly with what the
threads observed, and the verifier must have died of nothing.
"""

import threading

import pytest

from repro.core.client import VeriDBClient
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.portal import AuthenticatedQuery
from repro.crypto.mac import MessageAuthenticator
from repro.errors import AuthenticationError, CatalogError
from repro.obs import MetricsRegistry, scoped_registry
from repro.storage.config import StorageConfig

N_THREADS = 4
QUERIES_PER_THREAD = 40
REPLAY_EVERY = 10


@pytest.fixture
def observed_db():
    with scoped_registry(MetricsRegistry()) as registry:
        db = VeriDB(
            VeriDBConfig(
                key_seed=11,
                storage=StorageConfig(rsws_partitions=8),
            )
        )
        db.sql("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)")
        db.sql("INSERT INTO kv VALUES (1, 100)")
        yield db, registry


def test_submissions_race_background_verifier(observed_db):
    db, registry = observed_db
    db.start_background_verification(pause_seconds=0.001)
    successes = [0] * N_THREADS
    replays = [0] * N_THREADS
    errors: list[BaseException] = []
    barrier = threading.Barrier(N_THREADS)

    mac = MessageAuthenticator(db.enclave.keychain.mac_key)
    sql = "SELECT v FROM kv WHERE id = 1"

    def worker(index: int) -> None:
        try:
            client: VeriDBClient = db.connect(name=f"client-{index}")
            barrier.wait(5)
            for i in range(QUERIES_PER_THREAD):
                result = client.execute(sql)
                assert result.rows == ((100,),)
                successes[index] += 1
                if (i + 1) % REPLAY_EVERY == 0:
                    # rebuild the query the client just sent (qid = salt
                    # + counter i) and replay it straight at the portal
                    qid = client._qid_salt + i.to_bytes(8, "little")
                    replay = AuthenticatedQuery(
                        qid=qid, sql=sql, mac=mac.tag(qid, sql.encode())
                    )
                    try:
                        db.portal.submit(replay)
                    except AuthenticationError:
                        replays[index] += 1
        except BaseException as exc:  # surfaced to the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    # the background loop must still be alive — nothing killed it quietly
    assert db.storage.verifier.background_alive()
    db.stop_background_verification()  # re-raises any swallowed error
    assert errors == []

    total_success = sum(successes)
    total_replays = sum(replays)
    assert total_success == N_THREADS * QUERIES_PER_THREAD
    assert total_replays == N_THREADS * (QUERIES_PER_THREAD // REPLAY_EVERY)

    snap = registry.snapshot()
    # the setup fixture issues its SQL through the admin path (no qid),
    # so portal counters reconcile exactly with the client threads
    assert snap["portal.queries"]["value"] == total_success
    assert snap["portal.replays_rejected"]["value"] == total_replays
    assert snap["portal.auth_failures"]["value"] == 0
    assert snap["portal.execute_errors"]["value"] == 0
    assert db.portal.seen_query_count() == total_success
    # bounded replay state: one interval per client salt
    assert snap["portal.qid_salts"]["value"] == N_THREADS
    assert snap["portal.qid_ledger_size"]["value"] == N_THREADS
    # every successful query is one enclave crossing; replays go through
    # the portal directly in this test and cost no ECall
    assert snap["sgx.ecalls"]["value"] == total_success
    # the verifier made progress concurrently and died of nothing
    assert snap["verifier.passes"]["value"] >= 1
    assert snap["verifier.background_crashes"]["value"] == 0
    assert snap["verifier.alarms"]["value"] == 0
    # latency histograms saw every query, once per phase: every
    # submission (replays included) is authenticated before the replay
    # check; only the executed ones are endorsed; the engine also ran
    # the fixture's two admin statements
    assert snap["portal.auth_seconds"]["count"] == total_success + total_replays
    assert snap["portal.execute_seconds"]["count"] == total_success
    assert snap["portal.endorse_seconds"]["count"] == total_success
    assert snap["sql.execute_seconds"]["count"] == total_success + 2
    assert snap["sql.statements"]["value"] >= total_success


def test_a_phase_that_raises_is_still_observed_once(observed_db):
    db, registry = observed_db
    client = db.connect()
    execute = registry.histogram("portal.execute_seconds")
    before = execute.count
    with pytest.raises(CatalogError):
        client.execute("SELECT v FROM no_such_table")
    assert execute.count == before + 1
    assert registry.counter("portal.execute_errors").value == 1
    assert registry.histogram("portal.endorse_seconds").count == 0
