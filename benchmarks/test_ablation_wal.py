"""Write-ahead-log ablation — what a durability boundary costs.

Three configurations bracket the WAL's cost model on a raw
``store.insert`` stream:

* ``wal off``    — the seed's purely in-memory behaviour (no log);
* ``gc=1``       — sync-per-record: every append pays a full durability
  boundary (batch write + one sealed slot appended to the anchor
  journal);
* ``gc=64``      — group commit: one boundary per 64 records.

and a fourth pair measures the traffic that actually exists: the same
inserts as statements through ``client.execute``, where the portal's
commit-before-endorse rule makes *every* write statement its own
boundary whatever ``wal_group_commit`` says (``wal.syncs_per_write`` =
1.0 on the repo benchmark's ``oltp_durable``).

Measured here (pure-Python engine, best-of-3, scale 0.2): since the
anchor became an append-only journal (one ``write`` per boundary, no
file creation or rename) sync-per-record costs ~1.7x over no log —
it was ~4.5-9x while every boundary re-created ``ANCHOR`` — and group
commit ~1.4x with 64x fewer boundaries, so batching now buys ~1.2x on
this stream, not the 3x+ the knob's default was once gated on. Through
``client.execute`` the log adds ~1.3x to a statement. Reads never touch
the log, so the verified sequential scan must show no WAL overhead at
all; that scan number is what the CI perf-trend gate watches.

Run ``python benchmarks/test_ablation_wal.py`` for the table; the run
also writes ``BENCH_ablation_wal.json`` to the bench directory,
including a recovery-replay throughput figure.
"""

import tempfile
import time

from _harness import scaled, timed, write_bench_json
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_from_wal
from repro.obs import MetricsRegistry

N_INSERTS = scaled(1500)
N_SCAN_ROWS = scaled(1500)
GROUP_COMMIT = 64

CONFIG_LABELS = ("wal off", "gc=1", f"gc={GROUP_COMMIT}")


def build_db(group_commit=None, registry=None, seed=3):
    """``group_commit=None`` builds the no-WAL configuration."""
    wal_dir = None
    if group_commit is not None:
        wal_dir = tempfile.mkdtemp(prefix="veridb-wal-bench-") + "/wal"
    cfg = VeriDBConfig(
        key_seed=seed,
        wal_dir=wal_dir,
        wal_group_commit=group_commit if group_commit is not None else 64,
    )
    db = VeriDB(cfg, registry=registry)
    db.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, s VARCHAR(40))")
    return db, cfg


def time_inserts(db, n=N_INSERTS):
    """Wall seconds for n inserts through the verified write path plus
    the final commit (the acknowledged-durable boundary)."""
    store = db.table("t")

    def run():
        for i in range(n):
            store.insert((i, i * 3, f"value-{i:08d}"))
        if db.wal is not None:
            db.wal.commit()

    _, elapsed = timed(run)
    return elapsed


def time_statements(db, n=N_INSERTS):
    """Wall seconds for the same n inserts as attested statements: one
    ``client.execute`` each, so with a log every statement commits
    before its endorsement leaves the enclave."""
    client = db.connect()
    sql = "INSERT INTO t VALUES (?, ?, ?)"

    def run():
        for i in range(n):
            client.execute(sql, params=(i, i * 3, f"value-{i:08d}"))

    _, elapsed = timed(run)
    return elapsed


def best_of(build, repeats=3, measure=time_inserts):
    best = None
    for _ in range(repeats):
        db, _cfg = build()
        elapsed = measure(db)
        if best is None or elapsed < best:
            best = elapsed
    return best


def time_scan(group_commit=None, n=N_SCAN_ROWS, repeats=3):
    db, _cfg = build_db(group_commit)
    store = db.table("t")
    for i in range(n):
        store.insert((i, i, "x" * 16))
    if db.wal is not None:
        db.wal.commit()
    best = None
    for _ in range(repeats):
        rows, elapsed = timed(lambda: list(store.seq_scan()))
        assert len(rows) == n
        if best is None or elapsed < best:
            best = elapsed
    return best


# ----------------------------------------------------------------------
# pytest surface
# ----------------------------------------------------------------------
def test_group_commit_amortizes_durability_boundaries():
    """The accounting claim: 64-record batches mean ~64x fewer syncs."""
    registry = MetricsRegistry()
    db, _ = build_db(GROUP_COMMIT, registry=registry)
    base_syncs = registry.counter("wal.syncs").value
    time_inserts(db, n=256)
    syncs = registry.counter("wal.syncs").value - base_syncs
    appends = registry.counter("wal.appends").value
    assert appends >= 256
    assert syncs <= 256 // GROUP_COMMIT + 1, (
        f"{syncs} syncs for 256 appends at group_commit={GROUP_COMMIT} — "
        "group commit is not batching"
    )


def test_sync_per_record_overhead_bounded():
    """A durability boundary must be cheap, because closed-loop clients
    pay one per write statement: sync-per-record stays within 3x of the
    no-log configuration (measured ~1.7x; ~4.5x and up while each
    boundary re-created the anchor file)."""
    off = best_of(lambda: build_db(None))
    per_record = best_of(lambda: build_db(1))
    assert per_record < off * 3.0, (
        f"insert stream: gc=1 took {per_record * 1e3:.1f}ms vs "
        f"{off * 1e3:.1f}ms without a wal ({per_record / off:.2f}x) — "
        "the per-sync boundary got expensive again"
    )


def test_statements_commit_once_each_whatever_the_knob_says():
    """The traffic that exists: through ``client.execute`` every write
    statement is its own boundary — group commit never batches there."""
    registry = MetricsRegistry()
    db, _ = build_db(GROUP_COMMIT, registry=registry)
    base_syncs = registry.counter("wal.syncs").value
    time_statements(db, n=50)
    assert registry.counter("wal.syncs").value - base_syncs == 50


def test_committed_statement_overhead_bounded():
    """Durability per attested statement stays within 2x of the same
    statement without a log (measured ~1.3x)."""
    off = best_of(lambda: build_db(None), measure=time_statements)
    on = best_of(lambda: build_db(GROUP_COMMIT), measure=time_statements)
    assert on < off * 2.0, (
        f"client.execute inserts: {on * 1e3:.1f}ms with a wal vs "
        f"{off * 1e3:.1f}ms without ({on / off:.2f}x)"
    )


def test_batched_wal_insert_overhead_bounded():
    """Durability must not swamp the write path: batched WAL inserts
    stay within 4x of the no-log configuration (measured ~2x)."""
    off = best_of(lambda: build_db(None))
    on = best_of(lambda: build_db(GROUP_COMMIT))
    assert on < off * 4.0, (
        f"insert stream: {on * 1e3:.1f}ms with gc={GROUP_COMMIT} vs "
        f"{off * 1e3:.1f}ms without a wal ({on / off:.2f}x)"
    )


def test_wal_scan_overhead_is_zero():
    """Reads never touch the log: the verified seq scan — the number the
    perf-trend gate watches — must not regress with the WAL enabled."""
    off = time_scan(None)
    on = time_scan(GROUP_COMMIT)
    assert on < off * 1.15, (
        f"verified seq scan: {on * 1e3:.1f}ms with the wal enabled vs "
        f"{off * 1e3:.1f}ms without — the read path is paying for "
        "durability it never asked for"
    )


def test_recovery_replay_round_trip():
    """Recovery replays the whole stream and answers identically."""
    db, cfg = build_db(GROUP_COMMIT)
    store = db.table("t")
    for i in range(200):
        store.insert((i, i * 3, f"value-{i:08d}"))
    db.checkpoint()
    expected = db.sql("SELECT COUNT(*), SUM(v) FROM t").rows
    recovered = recover_from_wal(db.wal.directory, cfg)
    assert recovered.sql("SELECT COUNT(*), SUM(v) FROM t").rows == expected


# ----------------------------------------------------------------------
# direct run: the table + BENCH json
# ----------------------------------------------------------------------
def main():
    results = {}
    for label in CONFIG_LABELS:
        gc = None if label == "wal off" else int(label.split("=")[1])
        results[label] = best_of(lambda: build_db(gc))
    statement_off = best_of(lambda: build_db(None), measure=time_statements)
    statement_on = best_of(
        lambda: build_db(GROUP_COMMIT), measure=time_statements
    )
    scan_off = time_scan(None)
    scan_on = time_scan(GROUP_COMMIT)

    # recovery throughput: one timed replay of a freshly written log
    db, cfg = build_db(GROUP_COMMIT)
    store = db.table("t")
    for i in range(N_INSERTS):
        store.insert((i, i * 3, f"value-{i:08d}"))
    db.checkpoint()
    start = time.perf_counter()
    recover_from_wal(db.wal.directory, cfg)
    recovery_s = time.perf_counter() - start

    base = results["wal off"]
    print(f"\nWAL ablation: {N_INSERTS} verified inserts (best-of-3)")
    header = f"{'configuration':<14}{'wall ms':>12}{'vs wal off':>12}"
    print(header)
    print("-" * len(header))
    for label in CONFIG_LABELS:
        print(
            f"{label:<14}{results[label] * 1e3:>12.1f}"
            f"{results[label] / base:>11.2f}x"
        )
    print(
        f"\nsame inserts as client.execute statements (one commit each): "
        f"{statement_off * 1e3:.1f}ms wal off, {statement_on * 1e3:.1f}ms "
        f"wal on ({statement_on / statement_off:.2f}x)"
    )
    print(
        f"verified seq scan ({N_SCAN_ROWS} rows): "
        f"{scan_off * 1e3:.1f}ms wal off, {scan_on * 1e3:.1f}ms wal on "
        f"({scan_on / scan_off:.2f}x)"
    )
    print(
        f"recovery: replayed {N_INSERTS} records in {recovery_s * 1e3:.1f}ms "
        f"({N_INSERTS / recovery_s:.0f} records/s)"
    )

    write_bench_json(
        "ablation_wal",
        {
            "insert_wal_off_s": results["wal off"],
            "insert_gc1_s": results["gc=1"],
            "insert_gc64_s": results[f"gc={GROUP_COMMIT}"],
            "statement_wal_off_s": statement_off,
            "statement_wal_on_s": statement_on,
            "scan_wal_off_s": scan_off,
            "scan_wal_on_s": scan_on,
            "recovery_replay_s": recovery_s,
            "recovery_records_per_s": N_INSERTS / recovery_s,
            "group_commit": GROUP_COMMIT,
            "n_inserts": N_INSERTS,
        },
    )


if __name__ == "__main__":
    main()
