"""CI smoke for verified recovery: crash, recover, snapshot, refuse tamper.

Usage::

    python benchmarks/recovery_smoke.py [OUTPUT]

Boots a WAL-backed seeded VeriDB instance, drives a DML workload with a
mid-run checkpoint, "crashes" it (abandons the process state), recovers
from the log, and asserts the recovered instance answers identically
and passes a full verification pass. It then flips one byte of the log
and asserts recovery *refuses* with a typed
:class:`~repro.errors.RecoveryIntegrityError` — a recovery pipeline
that accepts a tampered log is a failed smoke even if every happy path
works. Last, it snapshots the recovered instance (a sealed,
checkpoint-only log), restores the snapshot under the same identity and
requires identical answers, and requires an enclave with another key
seed to be refused (``unsealable``).

Every ``wal_checkpoint`` / ``recovery_complete`` / ``recovery_refused``
event emitted along the way is captured to ``OUTPUT`` (default
``recovery_events.jsonl`` in the bench-artifact directory —
``REPRO_BENCH_DIR``, default ``.bench/``); CI uploads it as an
artifact, so each commit has a machine-readable recovery trace.

Exit status is non-zero on any deviation — silent recovery of the
tampered log most of all.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import bench_dir, scaled  # noqa: E402

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_from_wal, snapshot_database
from repro.errors import RecoveryIntegrityError
from repro.obs import JsonlEventSink, scoped_event_sink

N_ROWS = scaled(300)
SEED = 83
QUERY = "SELECT COUNT(*), SUM(balance) FROM accounts"


def run_workload(db):
    db.sql("CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance INTEGER)")
    for i in range(N_ROWS):
        db.sql(f"INSERT INTO accounts VALUES ({i}, {i * 7})")
    db.checkpoint()
    db.sql("UPDATE accounts SET balance = 0 WHERE id = 3")
    db.sql(f"DELETE FROM accounts WHERE id = {N_ROWS - 1}")
    db.wal.commit()
    return db.sql(QUERY).rows


def main() -> int:
    output = (
        sys.argv[1]
        if len(sys.argv) > 1
        else os.path.join(bench_dir(), "recovery_events.jsonl")
    )
    if os.path.dirname(output):
        os.makedirs(os.path.dirname(output), exist_ok=True)
    if os.path.exists(output):
        os.unlink(output)
    workdir = tempfile.mkdtemp(prefix="veridb-recovery-smoke-")
    wal_dir = os.path.join(workdir, "wal")
    cfg = VeriDBConfig(key_seed=SEED, wal_dir=wal_dir, wal_group_commit=16)

    failures = []
    with scoped_event_sink(JsonlEventSink(path=output)) as sink:
        expected = run_workload(VeriDB(cfg))
        recovered = recover_from_wal(wal_dir, cfg)
        got = recovered.sql(QUERY).rows
        if got != expected:
            failures.append(f"recovered answers diverged: {got} != {expected}")
        try:
            recovered.verify_now()
        except Exception as alarm:  # noqa: BLE001 - smoke reports, not raises
            failures.append(f"recovered instance failed verification: {alarm}")
        recovered.wal.close()

        # tamper: flip one byte mid-log; recovery must refuse loudly
        tampered = os.path.join(workdir, "tampered")
        shutil.copytree(wal_dir, tampered)
        segment = sorted(
            p for p in os.listdir(tampered) if p.startswith("wal-")
        )[0]
        seg_path = os.path.join(tampered, segment)
        blob = bytearray(open(seg_path, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        open(seg_path, "wb").write(bytes(blob))
        try:
            recover_from_wal(tampered, cfg)
            failures.append(
                "tampered log recovered silently — the integrity gate is off"
            )
        except RecoveryIntegrityError as refusal:
            print(
                f"[recovery-smoke] tamper refused as designed: "
                f"reason={refusal.reason}"
            )

        # snapshot: a sealed log restores under the same identity only
        snapshot = os.path.join(workdir, "snapshot")
        foreign_copy = os.path.join(workdir, "snapshot-foreign")
        rows = snapshot_database(recovered, snapshot)
        shutil.copytree(snapshot, foreign_copy)
        restored = recover_from_wal(snapshot, VeriDBConfig(key_seed=SEED))
        if restored.sql(QUERY).rows != expected:
            failures.append("restored snapshot answers diverged")
        try:
            recover_from_wal(foreign_copy, VeriDBConfig(key_seed=SEED + 1))
            failures.append("snapshot restored under a foreign enclave identity")
        except RecoveryIntegrityError as refusal:
            if refusal.reason != "unsealable":
                failures.append(f"foreign identity refused as {refusal.reason}")
            print(
                f"[recovery-smoke] snapshot of {rows} rows restored; foreign "
                f"identity refused: reason={refusal.reason}"
            )
        sink.close()

    n_events = sum(1 for _ in open(output))
    print(
        f"[recovery-smoke] {N_ROWS} rows, crash+recover round trip, "
        f"{n_events} events -> {output}"
    )
    for failure in failures:
        print(f"[recovery-smoke] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
