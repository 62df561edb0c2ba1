"""Seeded chaos: replayability, typed-error discipline, degradation.

The acceptance contract of the fault subsystem, pinned end to end:

* two runs of the same workload under the same :class:`ChaosSchedule`
  seed produce *identical* fault sequences, per-operation outcomes and
  final table contents — chaos runs are replayable byte-for-byte;
* every fault that surfaces does so as a typed error; successful reads
  always return exactly what a shadow model predicts (zero
  silently-wrong results), and a final verification pass is clean;
* with the background verifier down, queries still execute but come
  back flagged unverified (authenticated flag) and an incident opens;
  recovery resolves it.
"""

import dataclasses
import random

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.portal import AuthenticatedQuery, digest_result
from repro.errors import (
    AuthenticationError,
    PermanentFault,
    RetryExhausted,
    TransientFault,
)
from repro.faults import ChaosPlane, ChaosSchedule, scoped_fault_plane, sites
from tests.conftest import poll_until

#: faults that may legitimately surface to the workload driver; anything
#: else escaping a chaos run is a bug (silent corruption or an untyped
#: error), and the test fails on it
TYPED_SURFACED_FAULTS = (TransientFault, PermanentFault, RetryExhausted)

CHAOS_RATES = {
    sites.ECALL_ABORT: 0.08,
    sites.SPLICE_INTERRUPTION: 0.08,
    sites.EPC_SWAP_ERROR: 0.03,
    sites.TRANSIENT_READ_ERROR: 0.003,  # checked once per cell access
}


def run_chaos(seed: int, ops: int = 150):
    """One seeded chaos run; returns everything a replay must reproduce."""
    plane = ChaosPlane(ChaosSchedule(seed=seed, rates=CHAOS_RATES))
    plane.disarm()  # quiet load phase: faults only hit the armed workload
    with scoped_fault_plane(plane):
        db = VeriDB(VeriDBConfig(key_seed=17))
        client = db.connect()
        client.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(20):
            client.execute(f"INSERT INTO kv VALUES ({i}, {i * 7})")
    model = {i: i * 7 for i in range(20)}
    driver = random.Random(seed * 1_000_003)
    outcomes = []
    plane.arm()
    for n in range(ops):
        roll = driver.random()
        key = driver.randrange(50)
        if roll < 0.35:
            sql = (
                f"UPDATE kv SET v = {key * 11} WHERE id = {key}"
                if key in model
                else f"INSERT INTO kv VALUES ({key}, {key * 11})"
            )
            apply = lambda: model.__setitem__(key, key * 11)
        elif roll < 0.5:
            sql = f"DELETE FROM kv WHERE id = {key}"
            apply = lambda: model.pop(key, None)
        else:
            sql = f"SELECT id, v FROM kv WHERE id = {key}"
            apply = None
        try:
            result = client.execute(sql)
        except TYPED_SURFACED_FAULTS as fault:
            outcomes.append(("fault", type(fault).__name__, n))
            continue
        if apply is not None:
            apply()
        elif result.rows != (
            ((key, model[key]),) if key in model else ()
        ):
            raise AssertionError(
                f"silently wrong read at op {n}: {result.rows!r}"
            )
        outcomes.append(("ok", sql.split()[0], n))
        if n % 40 == 39:
            try:
                db.verify_now()
                outcomes.append(("verify-ok", "", n))
            except TYPED_SURFACED_FAULTS as fault:
                outcomes.append(("verify-fault", type(fault).__name__, n))
    plane.disarm()
    rows = tuple(db.sql("SELECT id, v FROM kv ORDER BY id").rows)
    digest = digest_result(("id", "v"), rows, len(rows))
    db.verify_now()  # the safe-abort sites left nothing corrupted behind
    return outcomes, plane.log, rows, digest, model


@pytest.mark.chaos
def test_same_seed_runs_are_byte_identical():
    first = run_chaos(seed=2024)
    second = run_chaos(seed=2024)
    assert first[1] == second[1]  # identical fault sequences...
    assert first[0] == second[0]  # ...identical per-op outcomes...
    assert first[3] == second[3]  # ...identical final table digest
    # and the chaos actually exercised the sites
    assert len(first[1]) > 0
    fired_sites = {record.site for record in first[1]}
    assert sites.ECALL_ABORT in fired_sites or sites.SPLICE_INTERRUPTION in fired_sites


@pytest.mark.chaos
def test_final_state_matches_shadow_model():
    outcomes, log, rows, _digest, model = run_chaos(seed=77)
    assert dict(rows) == model  # no lost, duplicated or mangled writes
    assert any(kind == "fault" for kind, *_ in outcomes) or len(log) > 0


@pytest.mark.chaos
def test_different_seeds_diverge():
    a = run_chaos(seed=1, ops=80)
    b = run_chaos(seed=2, ops=80)
    assert a[1] != b[1]  # different seeds: different fault sequences


# ----------------------------------------------------------------------
# graceful degradation: verifier down ⇒ flagged responses + incident
# ----------------------------------------------------------------------
def _degraded_db():
    plane = ChaosPlane(
        ChaosSchedule(
            seed=5,
            rates={sites.VERIFIER_CRASH_AFTER_END_PASS: 1.0},
            limit_per_site=1,
        )
    )
    plane.disarm()
    with scoped_fault_plane(plane):
        db = VeriDB(VeriDBConfig(key_seed=23))
        client = db.connect()
        client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        client.execute("INSERT INTO t VALUES (1, 10)")
    return db, client, plane


def test_verifier_down_degrades_gracefully_and_recovers():
    db, client, plane = _degraded_db()
    healthy = client.execute("SELECT v FROM t WHERE id = 1")
    assert healthy.verified  # no background loop yet: nothing degraded

    db.start_background_verification()
    plane.arm()  # first clean epoch close now kills the loop
    assert poll_until(lambda: db.storage.verifier.background_degraded())
    plane.disarm()

    degraded = client.execute("SELECT v FROM t WHERE id = 1")
    assert degraded.rows == ((10,),)  # queries still execute...
    assert not degraded.verified  # ...but are flagged unverified
    incidents = db.incidents.active("verifier-down")
    assert len(incidents) == 1  # and exactly one incident is open
    client.execute("SELECT v FROM t WHERE id = 1")
    assert len(db.incidents.active("verifier-down")) == 1  # deduplicated

    # recovery: surface the crash, restart the loop, flag clears
    with pytest.raises(TransientFault):
        db.stop_background_verification()
    db.start_background_verification(pause_seconds=0.005)
    assert poll_until(lambda: db.storage.verifier.background_alive())
    recovered = client.execute("SELECT v FROM t WHERE id = 1")
    assert recovered.verified
    assert db.incidents.active("verifier-down") == []
    resolved = [i for i in db.incidents.all() if i.key == "verifier-down"]
    assert resolved and all(i.resolved for i in resolved)
    db.stop_background_verification()


def test_unverified_flag_is_authenticated_both_ways():
    db, client, plane = _degraded_db()
    db.start_background_verification()
    plane.arm()
    assert poll_until(lambda: db.storage.verifier.background_degraded())
    plane.disarm()

    qid = client._fresh_qid()
    sql = "SELECT v FROM t WHERE id = 1"
    mac = client._mac.tag(qid, sql.encode("utf-8"))
    endorsed = db.enclave.ecall(
        "submit_query", AuthenticatedQuery(qid=qid, sql=sql, mac=mac)
    )
    assert not endorsed.verified
    # a host stripping the degraded flag fails the endorsement check
    forged = dataclasses.replace(endorsed, verified=True)
    with pytest.raises(AuthenticationError):
        client._check(qid, forged)
    # the genuine response, flag intact, is accepted
    client._check(qid, endorsed)

    # other direction: a healthy result cannot be branded unverified
    with pytest.raises(TransientFault):
        db.stop_background_verification()
    qid2 = client._fresh_qid()
    mac2 = client._mac.tag(qid2, sql.encode("utf-8"))
    endorsed2 = db.enclave.ecall(
        "submit_query", AuthenticatedQuery(qid=qid2, sql=sql, mac=mac2)
    )
    assert endorsed2.verified
    forged2 = dataclasses.replace(endorsed2, verified=False)
    with pytest.raises(AuthenticationError):
        client._check(qid2, forged2)
