"""The attack × fault matrix: every adversary capability is detected
end to end through the portal — and injected transient faults never mask
a detection.

Each :class:`~repro.memory.adversary.Adversary` method is run against a
live database twice: once on a quiet system, once with the fault plane
firing transient aborts and read errors throughout the detection window.
Detection must hold in both columns; a fault that swallowed an alarm
would be a soundness hole in the recovery paths.
"""

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.errors import (
    IntegrityError,
    ProofError,
    RetryExhausted,
    RollbackDetected,
    TransientFault,
    VerificationFailure,
)
from repro.faults import ChaosPlane, ChaosSchedule, scoped_fault_plane, sites
from repro.memory.adversary import Adversary
from repro.memory.cells import make_addr

#: what detection legitimately looks like, portal-side: a verification
#: alarm, a proof/integrity failure on the read path, or the client's
#: rollback audit firing
DETECTION_ERRORS = (
    VerificationFailure,
    ProofError,
    IntegrityError,
    RollbackDetected,
)

CHAOS_RATES = {
    sites.ECALL_ABORT: 0.15,
    sites.EPC_SWAP_ERROR: 0.05,
    sites.TRANSIENT_READ_ERROR: 0.002,
    sites.SPLICE_INTERRUPTION: 0.1,
}


def build_db(config=None):
    db = VeriDB(config if config is not None else VeriDBConfig(key_seed=9))
    db.sql("CREATE TABLE acct (id INTEGER PRIMARY KEY, balance INTEGER)")
    for i in range(12):
        db.sql(f"INSERT INTO acct VALUES ({i}, {i * 100})")
    db.verify_now()
    return db


def record_addr(db, pk):
    table = db.table("acct")
    rid = table.indexes[0].search(pk)
    page = table.heap.get_page(rid.page_id)
    offset, _ = page.slot_offset_for_compaction(rid.slot)
    return make_addr(rid.page_id, offset)


# ----------------------------------------------------------------------
# one attack per Adversary method; each returns after staging the attack
# ----------------------------------------------------------------------
def attack_corrupt(db, adversary):
    addr = record_addr(db, 5)
    cell = db.storage.memory.raw_read(addr)
    adversary.corrupt(addr, cell.data[:-1] + b"\xff")


def attack_replay(db, adversary):
    addr = record_addr(db, 3)
    adversary.observe(addr)
    db.sql("UPDATE acct SET balance = 999999 WHERE id = 3")
    adversary.replay(addr)  # put the stale value (and timestamp) back


def attack_erase(db, adversary):
    adversary.erase(record_addr(db, 7))


def attack_fabricate(db, adversary):
    table = db.table("acct")
    page_id = next(iter(table.heap.pages())).page_id
    adversary.fabricate(make_addr(page_id, 0x3F00), b"forged-record")


def attack_swap(db, adversary):
    adversary.swap(record_addr(db, 2), record_addr(db, 9))


def attack_rollback_memory(db, adversary):
    image = adversary.snapshot()
    # state advances past the snapshot...
    db.sql("UPDATE acct SET balance = 0 WHERE id = 1")
    db.sql("INSERT INTO acct VALUES (100, 1)")
    # ...then the machine "loses power" and the old image comes back
    db.enclave.counter._simulate_power_loss()
    adversary.rollback_memory(image)


ATTACKS = {
    "corrupt": attack_corrupt,
    "replay": attack_replay,
    "erase": attack_erase,
    "fabricate": attack_fabricate,
    "swap": attack_swap,
    "rollback_memory": attack_rollback_memory,
}


def detect(db, client, attack_name):
    """Drive detection end to end; transient faults are ridden out.

    Rollback is detected by the client's sequence audit on its next
    query; everything else by the verification pass. Injected transient
    faults may abort an individual attempt — retrying is exactly what an
    operator does — but a detection error is final and must surface.
    """
    for _ in range(10):  # bounded patience: faults abort attempts
        try:
            if attack_name == "rollback_memory":
                client.execute("SELECT balance FROM acct WHERE id = 1")
            else:
                db.verify_now()
            return None  # attempt completed without an alarm
        except DETECTION_ERRORS as caught:
            return caught
        except (TransientFault, RetryExhausted):
            continue  # an injected fault, not a verdict — try again
    raise AssertionError("injected faults starved the detection loop")


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
@pytest.mark.parametrize("with_chaos", [False, True], ids=["quiet", "chaos"])
def test_attack_detected_end_to_end(attack_name, with_chaos):
    plane = ChaosPlane(
        ChaosSchedule(seed=31, rates=CHAOS_RATES if with_chaos else {})
    )
    plane.disarm()
    with scoped_fault_plane(plane):
        db = build_db()
        client = db.connect()
        client.execute("SELECT COUNT(*) FROM acct")
    adversary = Adversary(db.storage.memory)
    ATTACKS[attack_name](db, adversary)  # staged quietly: attacker's move
    if with_chaos:
        plane.arm()
    try:
        caught = detect(db, client, attack_name)
    finally:
        plane.disarm()
    assert caught is not None, f"attack {attack_name!r} went undetected"
    assert isinstance(caught, DETECTION_ERRORS)


def test_honest_run_raises_no_alarm_under_chaos():
    """The dual guarantee: chaos alone must never fabricate evidence."""
    plane = ChaosPlane(ChaosSchedule(seed=31, rates=CHAOS_RATES))
    plane.disarm()
    with scoped_fault_plane(plane):
        db = build_db()
        client = db.connect()
    plane.arm()
    for i in range(20):
        try:
            client.execute(f"SELECT balance FROM acct WHERE id = {i % 12}")
        except (TransientFault, RetryExhausted):
            pass
    plane.disarm()
    db.verify_now()  # clean: no attack, no alarm
    assert db.incidents.active("verification-alarm") == []


def test_detection_is_not_maskable_by_verifier_crash():
    """A crash site scheduled on the same pass as a real alarm: the
    alarm wins (the crash-after site only fires on clean closes)."""
    plane = ChaosPlane(
        ChaosSchedule(
            seed=8,
            rates={sites.VERIFIER_CRASH_AFTER_END_PASS: 1.0},
        )
    )
    plane.disarm()
    with scoped_fault_plane(plane):
        db = build_db()
    adversary = Adversary(db.storage.memory)
    attack_corrupt(db, adversary)
    plane.arm()
    try:
        with pytest.raises(VerificationFailure):
            db.verify_now()
    finally:
        plane.disarm()
    # the alarm also landed on the incident log (durable evidence)
    assert db.incidents.active("verification-alarm")


def test_every_adversary_method_is_covered():
    """The matrix stays in sync with the Adversary surface: a new
    capability added to the adversary must get a matrix row."""
    mutators = {
        name
        for name, fn in vars(Adversary).items()
        if callable(fn)
        and not name.startswith("_")
        and name not in ("observe", "snapshot", "copy_observed")
    }
    # corrupt_timestamp has dedicated coverage in test_end_to_end
    assert mutators - {"corrupt_timestamp"} == set(ATTACKS)
