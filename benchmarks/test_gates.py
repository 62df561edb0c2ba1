"""Performance gates: each test tells two code paths apart.

A gate runs the same work down two paths — cached vs uncached,
compiled vs generic, logged vs unlogged, one shard vs four — and
asserts the ratio the alternative exists for. Ratios carry across
machines where absolute times do not; the two gates that need real
parallelism (4-shard scaling, federation overhead) run only where this
process may use 4+ CPUs and skip elsewhere.

Every size is fixed here — nothing reads ``REPRO_BENCH_SCALE`` — so a
local run measures what CI measures::

    PYTHONPATH=src python -m pytest -q benchmarks/test_gates.py

The tables these paths once printed, and the numbers they last showed,
are in EXPERIMENTS.md; the figure mains beside this file reproduce the
paper's Figures 9-13.
"""

from __future__ import annotations

import datetime
import os
import statistics
import tempfile
import time
from functools import partial

import pytest

from _harness import build_kv
from repro.catalog.catalog import Catalog
from repro.catalog.types import TOP
from repro.core.config import ShardConfig, VeriDBConfig
from repro.core.database import VeriDB
from repro.crypto.prf import CELL_PREFIX
from repro.obs import MetricsRegistry
from repro.sgx.epc import EnclavePageCache
from repro.shard import ShardedDatabase
from repro.sql import planner
from repro.sql.executor import QueryEngine
from repro.sql.operators import FusedScanFilterProjectOp, RangeScanOp, SeqScanOp
from repro.storage.config import BATCH_ROWS, StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.keychain import ChainLayout
from repro.storage.record import RecordCodec
from repro.workloads import tpch
from repro.workloads.micro import (
    KVTable,
    MicroWorkload,
    ZipfianKeys,
    kv_schema,
    load_kv,
)


def best_seconds(fn, repeats: int = 3, clock=time.perf_counter) -> float:
    """Best-of time of ``fn()`` on ``clock`` (wall time by default):
    interference only ever adds time."""
    best = float("inf")
    for _ in range(repeats):
        start = clock()
        fn()
        best = min(best, clock() - start)
    return best


def seq_scan_seconds(config: StorageConfig, n_rows: int) -> float:
    """Best-of-3 wall time of one full verified sequential scan."""
    kv, _engine, _workload = build_kv(config, n_rows)
    assert len(kv.table.seq_scan()) == n_rows
    return best_seconds(kv.table.seq_scan)


def sql_db(config: StorageConfig, n_rows: int = 2000) -> VeriDB:
    db = VeriDB(VeriDBConfig(storage=config, key_seed=0))
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)")
    db.load_rows("t", [(i, i * 13 % 1000, i % 7) for i in range(n_rows)])
    return db


# ----------------------------------------------------------------------
# trusted record cache on / off / over the EPC (StorageConfig.cache_bytes)
# ----------------------------------------------------------------------
CACHE_BYTES = 16 * 1024 * 1024
#: an EPC that cannot hold the cache: every page-out flushes it
SMALL_EPC_BYTES = 2 * 1024 * 1024
CACHE_ROWS = 1200


def zipf_read_seconds(cache_bytes: int, epc_bytes: int | None = None) -> float:
    """Best-of-3 wall time of 4,000 Zipf(0.9) point reads of 4,000-byte
    records (the first repeat warms the cache)."""
    engine = StorageEngine(StorageConfig(cache_bytes=cache_bytes))
    if epc_bytes is not None:
        engine.attach_epc(EnclavePageCache(capacity_bytes=epc_bytes))
    kv = KVTable(engine)
    load_kv(kv, MicroWorkload(n_initial=CACHE_ROWS, seed=0, value_bytes=4000).initial_pairs())
    keys = ZipfianKeys(CACHE_ROWS, theta=0.9, seed=7).sample(4000)
    get = kv.get
    return best_seconds(lambda: [get(key) for key in keys])


def test_cache_zipfian_speedup():
    """An in-budget cache wins >= 2x on skewed point reads (~2.5x)."""
    plain = zipf_read_seconds(0)
    cached = zipf_read_seconds(CACHE_BYTES)
    assert plain > cached * 2.0, (
        f"Zipfian point reads: cache=0 took {plain * 1e3:.1f}ms vs "
        f"{cached * 1e3:.1f}ms cached ({plain / cached:.2f}x)"
    )


def test_cache_over_epc_budget_slower():
    """The EPC-pressure cliff: a 16 MB cache against a 2 MB EPC pages
    shards out continuously, so it must lose to the same cache in budget."""
    fits = zipf_read_seconds(CACHE_BYTES)
    over = zipf_read_seconds(CACHE_BYTES, epc_bytes=SMALL_EPC_BYTES)
    assert over > fits * 1.25, (
        f"over-budget cache took {over * 1e3:.1f}ms vs {fits * 1e3:.1f}ms "
        "in-budget — EPC pressure is not being charged"
    )


def test_cache_scan_no_regression():
    """Scan resistance: unbounded scans bypass admission, so enabling
    the cache must not slow a full verified scan."""
    plain = seq_scan_seconds(StorageConfig(), 2000)
    cached = seq_scan_seconds(StorageConfig(cache_bytes=CACHE_BYTES), 2000)
    assert cached < plain * 1.15, (
        f"verified seq scan: {cached * 1e3:.1f}ms with the cache enabled "
        f"vs {plain * 1e3:.1f}ms without"
    )


# ----------------------------------------------------------------------
# compiled vs generic record decoder (storage/record.py)
# ----------------------------------------------------------------------
#: the lineitem columns Q1 reads, as the planner pushes them: its
#: shipdate range covers ~97 % of the table, so a sequential scan reads
#: l_shipdate too, for the filter above it
Q1_COLUMNS = (
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_tax",
    "l_returnflag",
    "l_linestatus",
    "l_shipdate",
)


def test_compiled_decoder_beats_generic():
    """Both decoders, called directly on 6,000 generated ``lineitem``
    payloads (sf 0.001) projected to Q1's columns: the generic one
    record by record, the compiled one in the chunk form a scan runs.
    The chunks must stay >= 3x faster (~6.5x) and hand only the
    ⊤-tailed last record to the generic decoder."""
    layout = ChainLayout(tpch.lineitem_schema())
    codec = RecordCodec()
    rows = list(tpch.TPCHGenerator(0.001, seed=0).lineitems())
    payloads = []
    for row, successor in zip(rows, rows[1:] + [None]):
        nexts = [
            TOP if successor is None else layout.chain_key(chain_id, successor)
            for chain_id in range(layout.n_chains)
        ]
        payloads.append(codec.encode(layout.to_tuple(layout.stored_from_row(row, nexts))))
    plan = layout.scan_plan(0, Q1_COLUMNS)  # the primary chain
    miss = partial(codec.decode, plan=plan)
    chunks = [
        payloads[start : start + BATCH_ROWS]
        for start in range(0, len(payloads), BATCH_ROWS)
    ]

    def generic():
        return [plan.project(codec.decode(payload)) for payload in payloads]

    def compiled():
        return [plan.chunk(chunk, miss) for chunk in chunks]

    records, decoded = generic(), compiled()
    columns = [
        [value for chunk in decoded for value in chunk[i]]
        for i in range(3 + len(Q1_COLUMNS))
    ]
    assert columns[:3] == [[record[i] for record in records] for i in range(3)]
    assert columns[3:] == [list(values) for values in zip(*(r[3] for r in records))]
    assert codec.fallbacks == 1
    slow, fast = best_seconds(generic, 5), best_seconds(compiled, 5)
    assert slow > fast * 3, (
        f"decoding {len(payloads)} lineitem records: generic "
        f"{slow * 1e3:.1f}ms vs compiled {fast * 1e3:.1f}ms"
    )


def lineitem_db() -> VeriDB:
    """TPC-H ``lineitem`` at sf 0.001 (6,000 rows)."""
    db = VeriDB(VeriDBConfig(key_seed=0))
    db.create_table("lineitem", tpch.lineitem_schema())
    db.load_rows("lineitem", tpch.TPCHGenerator(0.001, seed=0).lineitems())
    return db


def test_q1_columns_are_what_the_planner_pushes_down():
    """The codec gate measures the projection Q1 really scans with (on a
    loaded table: an empty one fits a page and keeps the range scan)."""
    plan = lineitem_db().sql(tpch.QUERY_1).plan
    (scan,) = [op for op in plan.walk() if isinstance(op, (SeqScanOp, RangeScanOp))]
    assert isinstance(scan, SeqScanOp)
    assert set(scan.columns) == set(Q1_COLUMNS)


# ----------------------------------------------------------------------
# sequential scan + filter vs range scan (Planner SEQ_SCAN_SHARE)
# ----------------------------------------------------------------------
def drain(op) -> None:
    for _batch in op.batches():
        pass


def test_access_path_follows_the_range_share(monkeypatch):
    """On ``lineitem`` (sf 0.001) each query's planned access path beats
    the other one: Q1's range (~97 % of rows) as a sequential scan under
    its fused filter drains in <= 0.9x a range scan over the same
    ``l_shipdate`` range (~0.75x), and Q6's (~15 %) as a range scan in
    <= 0.5x a sequential scan and filter (~0.2x). The two bracket
    ``SEQ_SCAN_SHARE``. Paths alternate inside every repeat, best of 15;
    a ratio over its limit gets up to two more rounds."""
    db = lineitem_db()
    table = db.table("lineitem")

    def fused(query):
        plan = db.engine.plan(query)
        (node,) = [op for op in plan.walk() if isinstance(op, FusedScanFilterProjectOp)]
        return node

    q1_seq, q6_range = fused(tpch.QUERY_1), fused(tpch.QUERY_6)
    assert isinstance(q1_seq.children[0], SeqScanOp)
    assert isinstance(q6_range.children[0], RangeScanOp)
    columns = [c for c in Q1_COLUMNS if c != "l_shipdate"]
    q1_range = RangeScanOp(
        table, "lineitem", "l_shipdate", hi=datetime.date(1998, 9, 2), columns=columns
    )
    monkeypatch.setattr(planner, "SEQ_SCAN_SHARE", 0.0)
    q6_seq = fused(tpch.QUERY_6)
    assert isinstance(q6_seq.children[0], SeqScanOp)
    paths = {"q1_seq": q1_seq, "q1_range": q1_range, "q6_range": q6_range, "q6_seq": q6_seq}
    best = dict.fromkeys(paths, float("inf"))
    for _rounds in range(3):
        for _ in range(15):
            for name, op in paths.items():
                best[name] = min(best[name], best_seconds(partial(drain, op), 1))
        q1, q6 = best["q1_seq"] / best["q1_range"], best["q6_range"] / best["q6_seq"]
        if q1 <= 0.9 and q6 <= 0.5:
            break
    assert q1 <= 0.9 and q6 <= 0.5, f"Q1 seq/range {q1:.2f} (<= 0.9), Q6 range/seq {q6:.2f} (<= 0.5)"


# ----------------------------------------------------------------------
# the restamp kernel vs a bare PRF loop (VerifiedMemory.restamp)
# ----------------------------------------------------------------------
def bare_prf_loop(prf, cells) -> None:
    """The floor: two keyed-BLAKE2b evaluations per ``(addr, data)``."""
    keyed, pack = prf.keyed, CELL_PREFIX.pack
    for stamp, (addr, data) in enumerate(cells):
        for timestamp in (stamp, stamp + 1):
            h = keyed()
            h.update(pack(addr, timestamp))
            h.update(data)
            h.digest()


def test_verified_reads_stay_near_the_prf_floor():
    """Algorithm 1 costs two PRF evaluations per read; everything else a
    verified read pays is interpreter constant. On TPC-H ``lineitem``
    (sf 0.001), ``HeapFile.read_many`` in ``l_shipdate``-chain order,
    256 records a call, stays <= 3.0x a bare loop doing the same PRF
    work, and ``Verifier.run_pass`` <= 1.5x. Path and floor alternate
    inside every repeat and are timed on this thread's CPU clock
    (``time.thread_time``), which other processes sharing the core do
    not inflate; a ratio over its limit after 15 repeats gets up to two
    more rounds, since interference only ever adds time."""
    limits = {"scan_read": 3.0, "epoch_pass": 1.5}
    db = lineitem_db()
    table = db.table("lineitem")
    vmem, verifier = db.storage.vmem, db.storage.verifier
    shipdate = table.schema.chain_id("l_shipdate")
    rids = [rid for _key, rid in table.indexes[shipdate].items()]
    chunks = [rids[i : i + 256] for i in range(0, len(rids), 256)]

    def scan_read():
        return [table.heap.read_many(chunk, admit=False) for chunk in chunks]

    scanned = list(enumerate(p for chunk in scan_read() for p in chunk))
    checked = [
        (addr, cell.data) for addr, cell in db.storage.memory.cells() if cell.checked
    ]
    fns = {
        "scan_read": scan_read,
        "scan_floor": lambda: bare_prf_loop(vmem.prf, scanned),
        "epoch_pass": verifier.run_pass,
        "pass_floor": lambda: bare_prf_loop(vmem.prf, checked),
    }
    best = dict.fromkeys(fns, float("inf"))
    reads_before = vmem.stats.verified_reads
    cells_before = verifier.stats.cells_scanned
    for rounds in range(1, 4):
        for _ in range(15):
            for name, fn in fns.items():
                best[name] = min(best[name], best_seconds(fn, 1, time.thread_time))
        ratio = {
            "scan_read": best["scan_read"] / best["scan_floor"],
            "epoch_pass": best["epoch_pass"] / best["pass_floor"],
        }
        if all(ratio[name] <= limits[name] for name in limits):
            break
    # the work timed is the work claimed: one verified read per record,
    # one re-stamp per checked cell, every repeat
    assert vmem.stats.verified_reads - reads_before == rounds * 15 * len(rids)
    assert verifier.stats.cells_scanned - cells_before == rounds * 15 * len(checked)
    for name in limits:
        assert ratio[name] <= limits[name], (
            f"{name}: {ratio[name]:.2f}x its PRF floor > {limits[name]}x "
            f"({len(rids)} records, {len(checked)} checked cells)"
        )


# ----------------------------------------------------------------------
# bulk load vs one row at a time (VerifiableTable.insert_many)
# ----------------------------------------------------------------------
def load_counts(schema, rows, bulk: bool) -> int:
    """Verified reads plus writes of loading ``rows`` into a fresh table,
    counted in the registry: through ``load_rows`` (``bulk``) or one
    ``insert`` per row."""
    registry = MetricsRegistry()
    db = VeriDB(VeriDBConfig(key_seed=0), registry=registry)
    table = db.create_table("t", schema)

    def count() -> int:
        snap = registry.snapshot()
        return sum(
            snap.get(name, {"value": 0})["value"]
            for name in ("memory.verified_reads", "memory.verified_writes")
        )

    before = count()
    if bulk:
        db.load_rows("t", rows)
    else:
        for row in rows:
            table.insert(row)
    return count() - before


def test_bulk_load_splices_once_per_run():
    """A chunk's new keys are spliced a run at a time: one predecessor
    per maximal run of new keys between two existing neighbours, read
    to resolve the run and again before its one rewrite (the one-row
    case keeps the verified operations of the per-row splice). A loaded
    TPC-H ``lineitem`` row (sf 0.001) costs <= 1/2 the verified reads
    plus writes of inserting it alone (~0.42: most new ``l_shipdate``
    keys start a run of their own); an ascending load reads two
    predecessors per chunk and writes one."""
    lineitems = list(tpch.TPCHGenerator(0.001, seed=0).lineitems())
    schema = tpch.lineitem_schema()
    alone = load_counts(schema, lineitems, bulk=False)
    bulk = load_counts(schema, lineitems, bulk=True)
    assert bulk <= alone / 2, f"bulk {bulk / alone:.3f}x one row at a time"
    n_rows = 2000
    chunks = -(-n_rows // BATCH_ROWS)
    ascending = [(key, f"v{key}") for key in range(n_rows)]
    assert load_counts(kv_schema(), ascending, bulk=True) == 3 * chunks


# ----------------------------------------------------------------------
# the write-ahead log's durability boundary (VeriDBConfig.wal_dir)
# ----------------------------------------------------------------------
GROUP_COMMIT = 64
WAL_ROWS = 1500


def wal_db(group_commit: int | None, registry=None) -> VeriDB:
    """``group_commit=None`` builds the configuration without a log."""
    wal_dir = None
    if group_commit is not None:
        wal_dir = tempfile.mkdtemp(prefix="veridb-wal-gate-") + "/wal"
    db = VeriDB(
        VeriDBConfig(
            key_seed=3, wal_dir=wal_dir, wal_group_commit=group_commit or 64
        ),
        registry=registry,
    )
    db.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, s VARCHAR(40))")
    return db


def insert_seconds(db: VeriDB, n: int = WAL_ROWS) -> float:
    """``n`` inserts through the verified write path plus the final
    commit (the acknowledged-durable boundary)."""
    store = db.table("t")
    start = time.perf_counter()
    for i in range(n):
        store.insert((i, i * 3, f"value-{i:08d}"))
    if db.wal is not None:
        db.wal.commit()
    return time.perf_counter() - start


def statement_seconds(db: VeriDB, n: int = WAL_ROWS) -> float:
    """The same inserts as attested ``client.execute`` statements: with a
    log, every one commits before its endorsement leaves the enclave."""
    client = db.connect()
    start = time.perf_counter()
    for i in range(n):
        client.execute(
            "INSERT INTO t VALUES (?, ?, ?)", params=(i, i * 3, f"value-{i:08d}")
        )
    return time.perf_counter() - start


def test_sync_per_record_overhead_bounded():
    """Closed-loop clients pay one boundary per write statement, so one
    must be cheap: sync-per-record stays within 3x of no log (~1.7x)."""
    off = min(insert_seconds(wal_db(None)) for _ in range(3))
    per_record = min(insert_seconds(wal_db(1)) for _ in range(3))
    assert per_record < off * 3.0, (
        f"insert stream: gc=1 took {per_record * 1e3:.1f}ms vs "
        f"{off * 1e3:.1f}ms without a wal ({per_record / off:.2f}x)"
    )


def test_committed_statement_overhead_bounded():
    """Durability per attested statement stays within 2x (~1.3x)."""
    off = min(statement_seconds(wal_db(None)) for _ in range(3))
    on = min(statement_seconds(wal_db(GROUP_COMMIT)) for _ in range(3))
    assert on < off * 2.0, (
        f"client.execute inserts: {on * 1e3:.1f}ms with a wal vs "
        f"{off * 1e3:.1f}ms without ({on / off:.2f}x)"
    )


def test_statements_commit_once_each_whatever_the_knob_says():
    """Through ``client.execute`` every write statement is its own
    boundary — group commit never batches there."""
    registry = MetricsRegistry()
    db = wal_db(GROUP_COMMIT, registry=registry)
    base_syncs = registry.counter("wal.syncs").value
    statement_seconds(db, n=50)
    assert registry.counter("wal.syncs").value - base_syncs == 50


def test_group_commit_amortizes_durability_boundaries():
    """Raw appends batch: 64-record groups mean ~64x fewer syncs."""
    registry = MetricsRegistry()
    db = wal_db(GROUP_COMMIT, registry=registry)
    base_syncs = registry.counter("wal.syncs").value
    insert_seconds(db, n=256)
    syncs = registry.counter("wal.syncs").value - base_syncs
    assert registry.counter("wal.appends").value >= 256
    assert syncs <= 256 // GROUP_COMMIT + 1, (
        f"{syncs} syncs for 256 appends at group_commit={GROUP_COMMIT}"
    )


# ----------------------------------------------------------------------
# plan-cache hit vs cold parse, and the attested point read
# ----------------------------------------------------------------------
POINT_QUERY = "SELECT v FROM t WHERE id = ?"

#: gate on client.execute ÷ HeapFile.read: the ratio measured once the
#: point path was compiled (median 13.1, range 12.5–13.4 over nine runs
#: on a 2-core x86 VM, against 18.5 and 17.3–19.7 before) plus 25 %
POINT_CONSTANT_GATE = 16.5


def test_plan_cache_hit_beats_cold_parse():
    """300 point reads through one prepared statement (cache hits) must
    beat the same reads as distinct SQL texts with the plan cache off
    (lexer, parser and planner every time) by 1.15x (~1.4-2x)."""
    cold_db = sql_db(StorageConfig(plan_cache_size=0))
    cold = best_seconds(
        lambda: [cold_db.sql(f"SELECT v FROM t WHERE id = {i}") for i in range(300)]
    )
    stmt = sql_db(StorageConfig()).prepare(POINT_QUERY)
    prepared = best_seconds(lambda: [stmt.execute((i,)) for i in range(300)])
    assert cold > prepared * 1.15, (
        f"point reads: cold parse took {cold * 1e3:.1f}ms vs "
        f"{prepared * 1e3:.1f}ms prepared"
    )


def test_attested_point_read_constant():
    """A cached point SELECT, end to end through the client — qid, query
    MAC, portal, engine, one verified read, endorsement, client audit —
    costs at most POINT_CONSTANT_GATE bare ``HeapFile.read`` calls of
    the same records on a cache-off table. Both sides are medians,
    interleaved in blocks, so the ratio carries across machines."""
    db = sql_db(StorageConfig(cache_bytes=0))
    client = db.connect()
    table = db.table("t")
    keys = [i * 7919 % 2000 for i in range(300)]
    rids = [table.indexes[0].search(key) for key in keys]
    for key in keys:  # plan cached, code paths warm
        client.execute(POINT_QUERY, params=(key,))
    executes, reads = [], []
    for _ in range(7):
        for key in keys:
            start = time.perf_counter()
            client.execute(POINT_QUERY, params=(key,))
            executes.append(time.perf_counter() - start)
        for rid in rids:
            start = time.perf_counter()
            table.heap.read(rid)
            reads.append(time.perf_counter() - start)
    execute, read = statistics.median(executes), statistics.median(reads)
    assert execute < read * POINT_CONSTANT_GATE, (
        f"cached point SELECT took {execute * 1e6:.1f}us = "
        f"{execute / read:.1f}x its {read * 1e6:.2f}us verified read "
        f"(gate {POINT_CONSTANT_GATE}x)"
    )


# ----------------------------------------------------------------------
# one shard vs four, dark vs federated (ShardConfig)
# ----------------------------------------------------------------------
SCAN_QUERY = "SELECT id, v + w FROM t WHERE v > 640 AND w <> 3 AND id >= ?"
AGG_QUERY = "SELECT g, SUM(v), COUNT(*), AVG(w) FROM t GROUP BY g HAVING SUM(v) > ?"
FLEET_ROWS = 1200

needs_four_cores = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 4,
    reason="needs 4+ usable cores for a meaningful parallel gate",
)


def process_fleet(
    shard_count: int, federated: bool = False, n_rows: int = FLEET_ROWS
) -> ShardedDatabase:
    """A ``process``-transport fleet (one worker process per shard);
    ``federated`` turns on worker metrics, federation and a background
    health poll every 0.2 s."""
    db = ShardedDatabase(
        ShardConfig(
            shard_count=shard_count,
            transport="process",
            base=VeriDBConfig(key_seed=0),
            worker_metrics=federated,
            federate_metrics=federated,
            health_interval=0.2 if federated else 0.0,
        ),
        registry=MetricsRegistry() if federated else None,
    )
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT, w INT, CHAIN (v))")
    db.load_rows("t", [(i, i % 40, i * 13 % 1000, i % 7) for i in range(n_rows)])
    return db


def fleet_workload(db: ShardedDatabase, n_queries: int = 2) -> int:
    """Alternating scan-heavy and partial-aggregate queries; row total."""
    total = 0
    for i in range(n_queries):
        total += db.execute(SCAN_QUERY, params=(i % 50,)).rowcount
        total += db.execute(AGG_QUERY, params=(1000 * (i % 3),)).rowcount
    return total


def fleet_seconds(db: ShardedDatabase, repeats: int) -> tuple[float, int]:
    """Best-of wall time of the workload after one warm-up pass, and its
    row total (which must not vary)."""
    fleet_workload(db, n_queries=1)  # fork/spawn, first-touch pages
    totals = set()
    best = best_seconds(lambda: totals.add(fleet_workload(db)), repeats)
    assert len(totals) == 1, "non-deterministic workload rowcount"
    return best, totals.pop()


def test_fleet_answers_agree():
    """1, 2 and 4 shards, and a federated 4-shard fleet, give the same
    answers and close their epochs — on any machine."""
    answers = []
    for shard_count, federated in ((1, False), (2, False), (4, False), (4, True)):
        db = process_fleet(shard_count, federated, n_rows=120)
        try:
            scan = db.execute(SCAN_QUERY, params=(0,)).rows
            agg = db.execute(AGG_QUERY, params=(0,)).rows
            db.verify_now()
        finally:
            db.close()
        answers.append((sorted(scan), sorted(agg)))
    assert all(answer == answers[0] for answer in answers[1:])


@needs_four_cores
def test_four_shards_beat_one():
    """Scatter-gather over 4 worker processes finishes the workload at
    least 1.8x faster than one shard."""
    results = {}
    for shard_count in (1, 4):
        db = process_fleet(shard_count)
        try:
            results[shard_count] = fleet_seconds(db, repeats=2)
            db.verify_now()  # the cross-shard epoch close must hold
        finally:
            db.close()
    (single, rows_1), (four, rows_4) = results[1], results[4]
    assert rows_4 == rows_1
    assert single / four >= 1.8, (
        f"4-shard fleet only {single / four:.2f}x faster than one shard "
        f"({four:.3f}s vs {single:.3f}s)"
    )


@needs_four_cores
def test_federation_overhead_under_five_percent():
    """Worker metrics, federation and the health poller together cost
    the 4-shard workload under 5%: observability that taxes the hot
    path gets turned off in production."""
    results = {}
    for federated in (False, True):
        db = process_fleet(4, federated)
        try:
            results[federated] = fleet_seconds(db, repeats=3)
            if federated:
                snap = db.obs.snapshot()
                for shard in range(4):
                    key = f'memory.verified_reads{{shard="{shard}"}}'
                    assert snap.get(key, {}).get("value", 0) > 0, (
                        f"no federated series for shard {shard}"
                    )
        finally:
            db.close()
    (dark, dark_rows), (federated, federated_rows) = results[False], results[True]
    assert federated_rows == dark_rows
    overhead = federated / dark - 1.0
    assert overhead < 0.05, (
        f"federated fleet {overhead:+.1%} slower than dark "
        f"({federated:.3f}s vs {dark:.3f}s)"
    )


# ----------------------------------------------------------------------
# full vs touched verifier (StorageConfig.verifier_mode)
# ----------------------------------------------------------------------
def test_touched_verifier_skips_cold_pages():
    """After a load, 600 updates hit 64 hot keys of 4,000; the touched
    verifier's next pass scans fewer pages than Algorithm 2's full pass,
    skips the cold ones, and is faster."""
    passes = {}
    for mode in ("full", "touched"):
        kv, engine, _ = build_kv(StorageConfig(verifier_mode=mode), 4000)
        engine.verify_now()  # pass 1: everything is freshly loaded (all hot)
        for i in range(600):
            kv.update(1 + i % 64, f"hot-{i}")
        start = time.perf_counter()
        engine.verify_now()  # pass 2: only the hot pages were touched
        passes[mode] = (time.perf_counter() - start, engine.verifier.stats)
    (full_s, full), (touched_s, touched) = passes["full"], passes["touched"]
    assert touched.pages_scanned < full.pages_scanned
    assert touched.pages_skipped_untouched > 0
    assert touched_s < full_s


# ----------------------------------------------------------------------
# enclave-resident vs spilled intermediate state (spill_threshold_rows)
# ----------------------------------------------------------------------
def test_spilled_sort_runs_through_verified_storage():
    """An ORDER BY over 3,000 rows with a 64-row spill threshold sorts in
    runs written to and read back from verified storage (§5.4), paying
    PRF work for it, and returns what the in-enclave sort returns."""
    sql = "SELECT v FROM t ORDER BY v"
    engines = {}
    for threshold in (None, 64):
        engine = QueryEngine(
            Catalog(), StorageEngine(StorageConfig(spill_threshold_rows=threshold))
        )
        engine.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        table = engine.catalog.lookup("t").store
        for i in range(3000):
            table.insert((i, (i * 7919) % 3000))
        engines[threshold] = engine
    spilled = engines[64]
    prf_before = spilled.storage.vmem.prf.calls
    values = [row[0] for row in spilled.execute(sql).rows]
    assert values == sorted(values)
    assert spilled.spill.stats.rows_spilled > 0
    assert spilled.spill.stats.sort_runs > 1
    assert spilled.storage.vmem.prf.calls > prf_before
    assert engines[None].execute(sql).rows == spilled.execute(sql).rows
