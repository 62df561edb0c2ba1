"""Figure 11 — read/write latency: VeriDB vs the MB-Tree baseline.

MB-Tree recomputes the Merkle path to the root on every write and
builds an ADS on every read, all under a global root lock; VeriDB pays
two PRF evaluations per verified cell access and defers checking to the
epoch scan. Paper result: VeriDB reduces read/write latency by 94-96%
(note the log-scale axis in the paper's figure).

Run ``python benchmarks/test_fig11_vs_mbtree.py`` for the table.
"""

from _harness import (
    obs_scope,
    print_latency_table,
    print_metrics_breakdown,
    run_fig11,
    scaled,
    write_bench_json,
)

N_INITIAL = scaled(2000)
N_OPS = scaled(800)


def test_fig11_shape():
    """The asymmetry behind the paper's 94-96% gap holds.

    The machine-independent claim: an MB-Tree write rehashes a whole
    leaf (every entry: key + 500-byte value) plus the root path, while
    VeriDB pays a constant handful of PRF evaluations per operation. In
    C++ that work gap *is* the latency gap; under a Python interpreter
    the per-call overhead flattens absolute latencies (documented in
    EXPERIMENTS.md), so the shape assertion targets the crypto work.
    """
    results = run_fig11(N_INITIAL, N_OPS)
    work = results["work"]
    assert work["MBT"]["hashes_per_op"] > 5 * work["VeriDB"]["hashes_per_op"]
    assert work["MBT"]["bytes_per_op"] > 5 * work["VeriDB"]["bytes_per_op"]
    # VeriDB is at minimum competitive even with interpreter overhead
    latency = results["latency"]
    kinds = ("get", "insert", "delete", "update")
    veridb_total = sum(latency["VeriDB"].mean_us(k) for k in kinds)
    mbtree_total = sum(latency["MBT"].mean_us(k) for k in kinds)
    assert veridb_total < mbtree_total * 1.3


def main():
    with obs_scope() as registry:
        results = run_fig11(N_INITIAL, N_OPS)
        print_latency_table(
            "Figure 11: latency of reads/writes for MB-tree and VeriDB",
            results["latency"],
        )
        work = results["work"]
        print(
            f"crypto work per operation — MB-Tree: "
            f"{work['MBT']['hashes_per_op']:.0f} hashes / "
            f"{work['MBT']['bytes_per_op'] / 1024:.1f} KiB hashed; VeriDB: "
            f"{work['VeriDB']['hashes_per_op']:.0f} PRFs / "
            f"{work['VeriDB']['bytes_per_op'] / 1024:.1f} KiB"
        )
        print(
            "(paper: VeriDB reduces read/write latency by 94-96%; on a "
            "native engine the crypto-work ratio above dominates latency)"
        )
        write_bench_json(
            "fig11_vs_mbtree",
            {
                "mean_latency_us": {
                    label: rec.report()
                    for label, rec in results["latency"].items()
                },
                "crypto_work_per_op": work,
                "n_initial": N_INITIAL,
                "n_ops": N_OPS,
            },
        )
        print_metrics_breakdown(registry)


if __name__ == "__main__":
    main()
