"""The integrity state after a fixed statement sequence, pinned.

Algorithm 1 leaves a precise trail: four XOR accumulators per partition,
a logical timestamp next to every cell in untrusted memory, and counts of
PRF evaluations and RS/WS updates. A refactor of the read or scan path
(batching, kernels, caching of digests) must reproduce that trail bit
for bit at the default configuration — same reads in the same order,
same stamps, same digests — or logs, snapshots and the attack matrix
silently mean something else. The digest below was taken *before* the
restamp kernel replaced the per-cell procedures and must not move when
only the implementation of verified reads changes.

It legitimately changes with the record encoding, the key derivation,
the planner's choice of access path, heap placement or compaction
policy: re-pin it then, in a change that says so.
"""

import dataclasses
import hashlib
import random

from repro import VeriDB, VeriDBConfig

PINNED_DIGEST = "cb7ae348626b3426a19af659f7fe540f3c80d36d2be1eb7fffc59e23a3f28aeb"
#: PRF.calls, RSWSGroup.total_operations(), MemoryStats, verifier cells / pages
PINNED_COUNTS = (105862, 105862, (47043, 823, 331, 63, 49548), 4868, 136)


def run_statements() -> VeriDB:
    db = VeriDB(VeriDBConfig(key_seed=7))
    client = db.connect()
    client.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, g INTEGER, v TEXT, CHAIN (g))"
    )
    rng = random.Random(5)
    live = {}
    for k in range(300):
        live[k] = rng.randrange(40)
        client.execute(
            "INSERT INTO t VALUES (?, ?, ?)",
            params=(k, live[k], "x" * rng.randrange(20, 200)),
        )
    db.verify_now()
    for _ in range(400):
        draw = rng.random()
        k = rng.choice(sorted(live))
        if draw < 0.25:
            client.execute("SELECT v FROM t WHERE k = ?", params=(k,))
        elif draw < 0.45:
            lo = rng.randrange(40)  # a scan in secondary-chain order
            client.execute(
                "SELECT k, v FROM t WHERE g >= ? AND g < ?", params=(lo, lo + 5)
            )
        elif draw < 0.55:
            client.execute("SELECT COUNT(*) FROM t")
        elif draw < 0.65:
            client.execute("SELECT g, COUNT(*) FROM t GROUP BY g")
        elif draw < 0.80:
            client.execute(
                "UPDATE t SET v = ? WHERE k = ?",
                params=("y" * rng.randrange(20, 260), k),
            )
        elif draw < 0.88:
            live[k] = rng.randrange(40)  # re-splices the secondary chain
            client.execute("UPDATE t SET g = ? WHERE k = ?", params=(live[k], k))
        elif draw < 0.95:
            client.execute("DELETE FROM t WHERE k = ?", params=(k,))
            del live[k]
        else:
            db.verify_now()
    db.verify_now()
    client.execute("SELECT k FROM t WHERE g <= 20")  # leaves an epoch open
    return db


def test_integrity_state_is_byte_identical_after_a_fixed_sequence():
    db = run_statements()
    vmem, verifier = db.storage.vmem, db.storage.verifier
    digest = hashlib.sha256()
    for partition in vmem.rsws.partitions:
        for accumulator in (*partition.rs, *partition.ws):
            digest.update(accumulator.to_bytes(16, "little"))
    for addr, cell in sorted(db.storage.memory.cells(), key=lambda item: item[0]):
        digest.update(f"{addr}:{cell.timestamp}:{int(cell.checked)}:".encode())
        digest.update(cell.data)
    counts = (
        vmem.prf.calls,
        vmem.rsws.total_operations(),
        dataclasses.astuple(vmem.stats),
        verifier.stats.cells_scanned,
        verifier.stats.pages_scanned,
    )
    digest.update(repr(counts).encode())
    assert counts == PINNED_COUNTS
    assert digest.hexdigest() == PINNED_DIGEST
    assert verifier.stats.alarms == 0
