"""Plan-cache + columnar-execution ablation — what do the tentpoles buy?

Three independent comparisons, each with a CI gate:

1. **Columnar vs row-at-a-time.** A scan→filter→project query at the
   default batch size (fused, column-at-a-time evaluation) against
   ``batch_size=1`` (the pre-vectorization engine, one tuple per pull).
   The fused pipeline evaluates predicates and projections over column
   lists and never materializes intermediate row tuples, so it must win
   clearly.

2. **Cache hit vs cold parse.** Repeated point reads through a prepared
   statement (one parse, one plan, N-1 cache hits) against the same
   reads issued as distinct SQL texts with the plan cache disabled
   (every query pays the lexer, parser and planner). The front end is a
   real cost in a pure-Python engine; skipping it must win clearly.

3. **The attested point read against its verified read.** A cached
   point SELECT through the client — qid, query MAC, portal, engine,
   one verified read, endorsement, client audit — divided by the bare
   ``HeapFile.read`` of the same records on a cache-off table: the
   constant the protocol and the engine add around the one read the
   paper's proof needs (ROADMAP 6's "≤ 2× its verified read").

Run ``python benchmarks/test_ablation_plan_cache.py`` for the table.
"""

import statistics
from time import perf_counter

import pytest

from _harness import (
    obs_scope,
    print_metrics_breakdown,
    scaled,
    timed,
    write_bench_json,
)
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.storage.config import StorageConfig

N_ROWS = scaled(2000)
N_POINT_READS = scaled(300)
SCAN_QUERY = "SELECT id, v + w, w FROM t WHERE v > 250 AND w <> 3"
POINT_QUERY = "SELECT v FROM t WHERE id = ?"

#: gate on client.execute ÷ HeapFile.read: the ratio measured once the
#: point path was compiled (median 13.1, range 12.5–13.4 over nine runs
#: on a 2-core x86 VM, against 18.5 and 17.3–19.7 before) plus 25 %
POINT_CONSTANT_GATE = 16.5


def build_db(config: StorageConfig, n_rows: int = N_ROWS) -> VeriDB:
    db = VeriDB(VeriDBConfig(storage=config, key_seed=0))
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)")
    db.load_rows("t", [(i, i * 13 % 1000, i % 7) for i in range(n_rows)])
    return db


# ----------------------------------------------------------------------
# comparison 1: fused columnar vs row-at-a-time
# ----------------------------------------------------------------------
def run_scan_filter_project(
    batch_size: int, repeats: int = 3, n_rows: int = N_ROWS
) -> float:
    """Best-of wall time for the scan→filter→project query."""
    db = build_db(StorageConfig(batch_size=batch_size), n_rows)
    expected = sum(
        1 for i in range(n_rows) if i * 13 % 1000 > 250 and i % 7 != 3
    )
    best = None
    for _ in range(repeats):
        result, elapsed = timed(db.sql, SCAN_QUERY)
        assert result.rowcount == expected
        if best is None or elapsed < best:
            best = elapsed
    return best


# ----------------------------------------------------------------------
# comparison 2: prepared cache hits vs cold parses
# ----------------------------------------------------------------------
def run_point_reads_prepared(
    repeats: int = 3, n_reads: int = N_POINT_READS
) -> float:
    """N point reads through one prepared statement (N-1 cache hits)."""
    db = build_db(StorageConfig())
    stmt = db.prepare("SELECT v FROM t WHERE id = ?")
    best = None
    for _ in range(repeats):

        def run():
            for i in range(n_reads):
                stmt.execute((i % N_ROWS,))

        _, elapsed = timed(run)
        if best is None or elapsed < best:
            best = elapsed
    return best


def run_point_reads_cold(
    repeats: int = 3, n_reads: int = N_POINT_READS
) -> float:
    """The same reads as distinct SQL texts, plan cache disabled.

    Distinct literals would bust the cache anyway; disabling it as well
    keeps the comparison honest (no LRU bookkeeping on the cold side).
    """
    db = build_db(StorageConfig(plan_cache_size=0))
    best = None
    for _ in range(repeats):

        def run():
            for i in range(n_reads):
                db.sql(f"SELECT v FROM t WHERE id = {i % N_ROWS}")

        _, elapsed = timed(run)
        if best is None or elapsed < best:
            best = elapsed
    return best


# ----------------------------------------------------------------------
# comparison 3: the attested point read against its one verified read
# ----------------------------------------------------------------------
def attested_point_read_constant(
    repeats: int = 7, n_reads: int = N_POINT_READS
) -> tuple[float, float]:
    """Median seconds of (cached point SELECT through the client,
    ``HeapFile.read`` of the same record), cache off, interleaved in
    blocks so both sides see the same machine."""
    db = build_db(StorageConfig(cache_bytes=0))
    client = db.connect()
    table = db.table("t")
    keys = [i * 7919 % N_ROWS for i in range(n_reads)]
    rids = [table.indexes[0].search(key) for key in keys]
    for key in keys:  # plan cached, code paths warm
        client.execute(POINT_QUERY, params=(key,))
    executes, reads = [], []
    for _ in range(repeats):
        for key in keys:
            start = perf_counter()
            client.execute(POINT_QUERY, params=(key,))
            executes.append(perf_counter() - start)
        for rid in rids:
            start = perf_counter()
            table.heap.read(rid)
            reads.append(perf_counter() - start)
    return statistics.median(executes), statistics.median(reads)


# ----------------------------------------------------------------------
# pytest surface (the CI perf-smoke gates)
# ----------------------------------------------------------------------
def test_fused_columnar_beats_row_at_a_time():
    """Gate: the fused columnar pipeline must beat batch_size=1.

    Batch size 1 degenerates to tuple-at-a-time evaluation of every
    predicate and projection; the columnar pass amortizes the work over
    whole column lists (measured locally: ~1.5-2x). The 1.15x margin
    leaves room for CI jitter while still catching a real regression.
    """
    row_at_a_time = run_scan_filter_project(batch_size=1)
    columnar = run_scan_filter_project(batch_size=StorageConfig().batch_size)
    assert row_at_a_time > columnar * 1.15, (
        f"scan→filter→project: batch_size=1 took {row_at_a_time * 1e3:.1f}ms "
        f"vs {columnar * 1e3:.1f}ms fused columnar — the vectorized "
        "pipeline stopped paying for itself"
    )


def test_plan_cache_hit_beats_cold_parse():
    """Gate: a prepared cache hit must beat a cold parse+plan.

    The hit path skips the lexer, parser and planner entirely and
    re-executes a cloned template (measured locally: ~1.4-2x on point
    reads). Same 1.15x jitter margin as the columnar gate.
    """
    cold = run_point_reads_cold()
    prepared = run_point_reads_prepared()
    assert cold > prepared * 1.15, (
        f"point reads: cold parse took {cold * 1e3:.1f}ms vs "
        f"{prepared * 1e3:.1f}ms prepared — the plan cache stopped "
        "paying for itself"
    )


def test_attested_point_read_constant():
    """Gate: a cached point SELECT, end to end through the client, costs
    at most POINT_CONSTANT_GATE verified reads of its record.

    Both sides are medians of the same records on one table, so the
    ratio carries across machines; it moves when the protocol frames or
    the compiled point path around the read grow back.
    """
    execute, read = attested_point_read_constant()
    assert execute < read * POINT_CONSTANT_GATE, (
        f"cached point SELECT took {execute * 1e6:.1f}us = "
        f"{execute / read:.1f}x its {read * 1e6:.2f}us verified read "
        f"(gate {POINT_CONSTANT_GATE}x)"
    )


def test_prepared_reads_are_cache_hits():
    """The prepared harness really measures hits, not silent misses."""
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    db = VeriDB(VeriDBConfig(key_seed=0), registry=reg)
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)")
    db.load_rows("t", [(i, i, i) for i in range(10)])
    stmt = db.prepare("SELECT v FROM t WHERE id = ?")
    for i in range(10):
        stmt.execute((i,))
    assert reg.snapshot()["sql.plan_cache_hits"]["value"] == 10


# ----------------------------------------------------------------------
# direct run: the ablation table
# ----------------------------------------------------------------------
def main():
    # measured dark, as the gate is: a recording registry adds its own spans
    execute, read = attested_point_read_constant()
    with obs_scope() as registry:
        row_at_a_time = run_scan_filter_project(batch_size=1)
        columnar = run_scan_filter_project(
            batch_size=StorageConfig().batch_size
        )
        cold = run_point_reads_cold()
        prepared = run_point_reads_prepared()

        print("\nColumnar + plan-cache ablation: wall time (ms, best-of-3)")
        header = f"{'configuration':<36}{'time':>10}{'speedup':>10}"
        print(header)
        print("-" * len(header))
        print(
            f"{'scan→filter→project, batch_size=1':<36}"
            f"{row_at_a_time * 1e3:>10.1f}{'1.00x':>10}"
        )
        print(
            f"{'scan→filter→project, fused columnar':<36}"
            f"{columnar * 1e3:>10.1f}{row_at_a_time / columnar:>9.2f}x"
        )
        print(
            f"{'point reads, cold parse each time':<36}"
            f"{cold * 1e3:>10.1f}{'1.00x':>10}"
        )
        print(
            f"{'point reads, prepared (cache hits)':<36}"
            f"{prepared * 1e3:>10.1f}{cold / prepared:>9.2f}x"
        )
        print(
            f"\nattested point SELECT {execute * 1e6:.1f}us median = "
            f"{execute / read:.1f}x the {read * 1e6:.2f}us verified read "
            f"of its record (gate {POINT_CONSTANT_GATE}x)"
        )

        write_bench_json(
            "ablation_plan_cache",
            {
                "scan_filter_project_seconds": {
                    "row_at_a_time": row_at_a_time,
                    "fused_columnar": columnar,
                },
                "point_reads_seconds": {
                    "cold_parse": cold,
                    "prepared": prepared,
                },
                "columnar_speedup": row_at_a_time / columnar,
                "plan_cache_speedup": cold / prepared,
                "point_select_seconds": execute,
                "point_verified_read_seconds": read,
                "point_constant_ratio": execute / read,
            },
        )
        print_metrics_breakdown(registry)


if __name__ == "__main__":
    main()
