"""Figure 10 — latency of reads/writes vs verification frequency.

The background verifier scans one page every N operations; smaller N
means more eager verification, more page-lock contention and more
RSWS/PRF work interleaved with the foreground operations.

Paper result: latency rises as verification becomes more frequent; at
one page per 1000 operations the overhead over plain RSWS is 1-4%.

Run ``python benchmarks/test_fig10_verification_freq.py`` for the table.
"""

from _harness import (
    build_kv,
    obs_scope,
    print_latency_table,
    print_metrics_breakdown,
    run_fig10,
    scaled,
    write_bench_json,
)
from repro.storage.config import StorageConfig
from repro.workloads.runner import run_operations

N_INITIAL = scaled(2000)
N_OPS = scaled(1200)


def _run_with_frequency(frequency):
    kv, engine, workload = build_kv(StorageConfig(), N_INITIAL)
    engine.enable_continuous_verification(frequency)
    recorder = run_operations(kv, workload.operations(N_OPS))
    total = sum(seconds for seconds, _count in recorder.totals.values())
    return total, engine


def test_fig10_shape():
    """More frequent verification does strictly more work per operation.

    The deterministic part of the claim (pages scanned, PRF evaluations)
    is asserted exactly; wall-clock is compared best-of-3 because the
    per-op deltas are small at this scale.
    """
    total_50, engine_50 = _run_with_frequency(50)
    total_1000, engine_1000 = _run_with_frequency(1000)
    assert (
        engine_50.verifier.stats.pages_scanned
        > engine_1000.verifier.stats.pages_scanned
    )
    assert engine_50.vmem.prf.calls > engine_1000.vmem.prf.calls
    best_50 = min([total_50] + [_run_with_frequency(50)[0] for _ in range(2)])
    best_1000 = min(
        [total_1000] + [_run_with_frequency(1000)[0] for _ in range(2)]
    )
    assert best_50 > best_1000 * 0.95  # eager is never meaningfully cheaper


def main():
    with obs_scope() as registry:
        results = run_fig10(N_INITIAL, N_OPS)
        print_latency_table(
            "Figure 10: latency of reads/writes vs verification frequency "
            "(ops per page scan)",
            results,
        )
        write_bench_json(
            "fig10_verification_freq",
            {
                "mean_latency_us": {
                    freq: rec.report() for freq, rec in results.items()
                },
                "n_initial": N_INITIAL,
                "n_ops": N_OPS,
            },
        )
        print_metrics_breakdown(registry)


if __name__ == "__main__":
    main()
