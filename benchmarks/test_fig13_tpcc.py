"""Figure 13 — TPC-C throughput vs clients for varying RSWS counts.

The paper runs a 20-warehouse TPC-C with 1..8 clients and varies the
number of ReadSet/WriteSet partitions. More RSWSs → finer-grained locks
→ less contention between concurrent workers; with enough partitions
VeriDB adds no *concurrency* bottleneck (unlike an MHT root), only the
hash-update work itself (paper: ~3-4x throughput cost at 1024 RSWSs).

GIL note (see DESIGN.md): Python threads do not scale CPU-bound work,
so the absolute TPS curve is flatter than the paper's; the RSWS-count
ordering — the figure's point — is preserved because RSWS lock
contention is real across threads.

Run ``python benchmarks/test_fig13_tpcc.py`` for the full sweep.
"""

from _harness import (
    FIG13_RSWS_SERIES,
    build_tpcc,
    obs_scope,
    print_fig13_table,
    print_metrics_breakdown,
    run_fig13,
    scaled,
    write_bench_json,
)

WAREHOUSES = scaled(8, minimum=2)
TXNS_PER_CLIENT = scaled(60, minimum=10)


def test_fig13_shape():
    """No-verification beats verified; many RSWSs contend less than one.

    The lock-contention claim is asserted on the *contention counter*
    (deterministically ordered) as well as on throughput with slack —
    under the GIL the TPS gap between partition counts is a few percent
    and jitters with scheduling.
    """
    def measure(rsws):
        best_tps = 0.0
        waits = 0
        for _ in range(2):
            bench = build_tpcc(rsws, WAREHOUSES)
            tps = bench.run_clients(4, TXNS_PER_CLIENT)
            best_tps = max(best_tps, tps)
            waits += bench.db.storage.vmem.rsws.total_contention_waits()
        return best_tps, waits

    no_rsws_tps, _ = measure("no RSWS updates")
    many_tps, many_waits = measure(1024)
    one_tps, one_waits = measure(1)
    # verification costs throughput
    assert no_rsws_tps > many_tps
    # a single RSWS never contends less than 1024 partitions; under the
    # GIL collisions only happen on 5ms preemption boundaries, so both
    # counts can legitimately be zero on an idle machine
    assert one_waits >= many_waits
    # and throughput ordering holds with slack for scheduler noise
    assert many_tps > one_tps * 0.8


def main():
    with obs_scope() as registry:
        results = run_fig13(
            warehouses=WAREHOUSES,
            clients=(1, 2, 3, 4, 5, 6, 7, 8),
            txns_per_client=TXNS_PER_CLIENT,
            rsws_series=FIG13_RSWS_SERIES,
        )
        print_fig13_table(results)
        print(
            "(paper: peak at 6 clients; 1024 RSWSs ≈ 3-4x overhead vs no "
            "verification; fewer RSWSs progressively worse)"
        )
        cells = [tps for series in results.values() for tps in series.values()]
        write_bench_json(
            "fig13_tpcc",
            {
                "tps": results,
                # one cell is a few dozen transactions and jitters by
                # ±40 %; the whole sweep's mean, as time per transaction,
                # is what the baseline comparison watches
                "sweep_txn_us": 1e6 * len(cells) / sum(cells),
                "warehouses": WAREHOUSES,
                "txns_per_client": TXNS_PER_CLIENT,
            },
        )
        print_metrics_breakdown(registry)


if __name__ == "__main__":
    main()
