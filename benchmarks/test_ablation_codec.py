"""Record-codec ablation — what does the schema-compiled decoder buy?

A chain scan decodes every record it passes. The generic decoder walks
the payload tag by tag and materialises all of a record's stored values
(20 fields for ``lineitem``); the compiled one, built once per (layout,
projection), unpacks the fixed-width runs with precomputed structs and
steps over what the statement does not read. A scan runs its chunk
form: one generated loop per chunk of ``DEFAULT_BATCH_SIZE`` records
appending sentinel_of, key, nKey and each projected value to its own
list. This micro calls both directly — no storage, no verified memory —
on generated ``lineitem`` payloads projected to the columns TPC-H Q1
reads: the generic decoder record by record, the chunk form chunk by
chunk, as a scan calls it. It gates the ratio.

The input is fixed (``lineitem`` at scale factor 0.001, 6,000 records):
nothing here depends on ``REPRO_BENCH_SCALE`` or any other knob.

Run ``python benchmarks/test_ablation_codec.py`` for the table.
"""

from functools import partial

from _harness import timed, write_bench_json
from repro.catalog.types import TOP
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.sql.operators import RangeScanOp
from repro.storage.config import DEFAULT_BATCH_SIZE
from repro.storage.keychain import ChainLayout
from repro.storage.record import RecordCodec
from repro.workloads import tpch

#: the lineitem columns Q1 reads, as the planner pushes them: its
#: shipdate bound is absorbed by the range scan, so not l_shipdate
Q1_COLUMNS = (
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_tax",
    "l_returnflag",
    "l_linestatus",
)
SHIPDATE_CHAIN = 1


def lineitem_payloads() -> tuple[ChainLayout, list[bytes]]:
    """Stored ``lineitem`` records, chained in generation order."""
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
    return layout, payloads


def run_decoders(repeats: int = 5) -> dict:
    """Best-of wall time of each decoder over the same payloads."""
    layout, payloads = lineitem_payloads()
    plan = layout.scan_plan(SHIPDATE_CHAIN, Q1_COLUMNS)
    codec = RecordCodec()
    miss = partial(codec.decode, plan=plan)
    chunks = [
        payloads[start : start + DEFAULT_BATCH_SIZE]
        for start in range(0, len(payloads), DEFAULT_BATCH_SIZE)
    ]

    def generic():
        return [plan.project(codec.decode(payload)) for payload in payloads]

    def compiled():
        return [plan.chunk(chunk, miss) for chunk in chunks]

    records = generic()
    decoded = compiled()
    columns = [
        [value for chunk in decoded for value in chunk[i]]
        for i in range(3 + len(Q1_COLUMNS))
    ]
    assert columns[:3] == [[record[i] for record in records] for i in range(3)]
    assert columns[3:] == [list(values) for values in zip(*(r[3] for r in records))]
    fallbacks = codec.fallbacks
    best = {}
    for name, fn in (("generic", generic), ("compiled", compiled)):
        best[name] = min(timed(fn)[1] for _ in range(repeats))
    return {
        "records": len(payloads),
        "fallbacks_per_pass": fallbacks,
        "fields_skipped_per_record": plan.fields_skipped,
        "decode_seconds": best,
        "speedup": best["generic"] / best["compiled"],
    }


# ----------------------------------------------------------------------
# pytest surface (the CI perf-smoke gate)
# ----------------------------------------------------------------------
def test_compiled_decoder_beats_generic():
    """Gate: ≥ 3× on Q1's projection (measured locally: ~6.5×)."""
    result = run_decoders()
    # only the ⊤-tailed last record may leave the compiled path
    assert result["fallbacks_per_pass"] == 1
    seconds = result["decode_seconds"]
    assert seconds["generic"] > seconds["compiled"] * 3, (
        f"decoding {result['records']} lineitem records: generic "
        f"{seconds['generic'] * 1e3:.1f}ms vs compiled "
        f"{seconds['compiled'] * 1e3:.1f}ms — the compiled decoder "
        "stopped paying for itself"
    )


def test_q1_columns_are_what_the_planner_pushes_down():
    """The micro measures the projection Q1 really scans with."""
    db = VeriDB(VeriDBConfig(key_seed=0))
    db.create_table("lineitem", tpch.lineitem_schema())
    plan = db.sql(tpch.QUERY_1).plan
    (scan,) = [op for op in plan.walk() if isinstance(op, RangeScanOp)]
    assert scan.column == "l_shipdate"
    assert set(scan.columns) == set(Q1_COLUMNS)


# ----------------------------------------------------------------------
# direct run: the ablation table
# ----------------------------------------------------------------------
def main():
    result = run_decoders()
    seconds = result["decode_seconds"]
    print(
        f"\nRecord-codec ablation: {result['records']} lineitem records, "
        "Q1 projection (ms, best-of-5)"
    )
    header = f"{'decoder':<40}{'time':>10}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    print(f"{'generic decode + projection':<40}{seconds['generic'] * 1e3:>10.1f}{'1.00x':>10}")
    print(
        f"{'chunk form for (layout, Q1 columns)':<40}"
        f"{seconds['compiled'] * 1e3:>10.1f}{result['speedup']:>9.2f}x"
    )
    print(
        f"stored values skipped per record: {result['fields_skipped_per_record']} "
        f"of 22; records handed to the generic decoder: "
        f"{result['fallbacks_per_pass']}"
    )
    write_bench_json("ablation_codec", result)


if __name__ == "__main__":
    main()
