"""Tamper detection: every attack from the threat model, caught.

Simulates a Byzantine cloud provider (Section 3.1) attacking a VeriDB
instance through every channel the paper discusses, and shows the
corresponding detection mechanism firing:

1. in-place data corruption        → epoch verification alarm
2. stale-value replay (freshness)  → epoch verification alarm
3. record erasure (omission)       → immediate or epoch alarm
4. a lying untrusted index         → access-method proof failure
5. unauthorized / replayed queries → portal MAC & qid rejection
6. rollback via "power failure"    → client sequence-number audit

Run:  python examples/tamper_detection.py
"""

from repro import VeriDB, VeriDBConfig
from repro.errors import (
    AuthenticationError,
    ProofError,
    RollbackDetected,
    VerificationFailure,
)
from repro.memory.adversary import Adversary
from repro.memory.cells import make_addr


def record_addr(db, table_name, pk):
    table = db.table(table_name)
    rid = table.indexes[0].search(pk)
    page = table.heap.get_page(rid.page_id)
    offset, _ = page.slot_offset_for_compaction(rid.slot)
    return make_addr(rid.page_id, offset)


def fresh_db():
    db = VeriDB(VeriDBConfig())
    db.sql(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, "
        "balance INTEGER)"
    )
    for i in range(1, 21):
        db.sql(f"INSERT INTO acct VALUES ({i}, 'user{i}', {i * 1000})")
    db.verify_now()
    return db


def expect(name, exc_type, action):
    try:
        action()
    except exc_type as exc:
        print(f"  ✓ {name}: detected — {type(exc).__name__}: {exc}")
        return
    raise SystemExit(f"  ✗ {name}: ATTACK WENT UNDETECTED")


def main():
    print("1. in-place data corruption")
    db = fresh_db()
    adversary = Adversary(db.storage.memory)
    addr = record_addr(db, "acct", 7)
    cell = db.storage.memory.raw_read(addr)
    adversary.corrupt(addr, cell.data[:-1] + b"\xff")
    expect("corruption", VerificationFailure, db.verify_now)

    print("2. stale-value replay")
    db = fresh_db()
    adversary = Adversary(db.storage.memory)
    addr = record_addr(db, "acct", 7)
    adversary.observe(addr)
    db.sql("UPDATE acct SET balance = 0 WHERE id = 7")  # legit update
    adversary.replay(addr)  # serve the old balance again
    expect("replay", VerificationFailure, db.verify_now)

    print("3. record erasure")
    db = fresh_db()
    Adversary(db.storage.memory).erase(record_addr(db, "acct", 7))
    expect("erasure", VerificationFailure, db.verify_now)

    print("4. lying index (hides a record from a range scan)")
    db = fresh_db()
    db.table("acct").indexes[0].delete(7)
    expect(
        "omission via index",
        ProofError,
        lambda: db.sql("SELECT * FROM acct WHERE id BETWEEN 5 AND 10"),
    )

    print("5. unauthorized query")
    db = fresh_db()
    from repro.core.portal import AuthenticatedQuery

    forged = AuthenticatedQuery(
        qid=b"evil-qid" + (0).to_bytes(8, "little"),  # salt ‖ counter
        sql="DELETE FROM acct",
        mac=b"\x00" * 32,
    )
    expect(
        "forged MAC", AuthenticationError, lambda: db.portal.submit(forged)
    )

    print("6. rollback attack (power failure + old memory image)")
    db = fresh_db()
    client = db.connect()
    client.execute("SELECT balance FROM acct WHERE id = 1")
    adversary = Adversary(db.storage.memory)
    image = adversary.snapshot()
    client.execute("UPDATE acct SET balance = 0 WHERE id = 1")
    db.enclave.counter._simulate_power_loss()
    adversary.rollback_memory(image)
    expect(
        "rollback",
        RollbackDetected,
        lambda: client.execute("SELECT balance FROM acct WHERE id = 1"),
    )

    print("\nall six attack channels detected ✔")

    print("\n7. forensic localization of an alarm")
    db = fresh_db()
    adversary = Adversary(db.storage.memory)
    addr = record_addr(db, "acct", 13)
    adversary.corrupt(addr, b"\x00garbage\x00" * 4)
    try:
        db.verify_now()
    except VerificationFailure as error:
        from repro.core.incident import investigate

        report = investigate(db, error)
        print("  incident report:")
        for line in report.summary().splitlines():
            print(f"    {line}")


if __name__ == "__main__":
    main()
