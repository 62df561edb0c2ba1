"""One measured run of one workload, in a process of its own.

``run.py`` starts this file as a fresh subprocess (``PYTHONHASHSEED=0``)
per workload run. It pins itself to one CPU, generates the inputs from
the seed, sets the system up, runs fixed-size rounds, checks every
answer, and prints one JSON object as the last line of its output.

Untraced mode measures the end-to-end metrics on unwrapped code with
the default null registry. Traced mode (``--trace 1``) measures nothing
end to end: it runs a quarter of the rounds twice — once plain, once
with the wrappers of ``tracing.py`` and a real ``MetricsRegistry`` — and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ARTIFACTS = ROOT / ".bench" / "e2e"

#: set-ups per untraced run; ``setup_s`` reports their median
SETUP_REPEATS = 3
#: a run never measures fewer rounds than this
MIN_ROUNDS = 8


def low_quartile(values) -> float:
    """p25: interference only ever adds time, so the quiet quartile of
    the rounds estimates the program's own cost."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def pin_to_one_cpu() -> str:
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return f"cpu {cpu}"
    except (AttributeError, OSError) as error:
        return f"not pinned ({error})"


def planned_rounds(seconds: float, rounds_per_second: float) -> int:
    """Counts, not durations, are fixed: ``--seconds`` only chooses how
    many identical rounds run (about that long on the reference box)."""
    return max(MIN_ROUNDS, round(seconds * rounds_per_second))


def measure(workload, rounds: int) -> dict:
    """Run rounds 1..``rounds``; returns per-round series and failures."""
    walls, headline, closes, failures = [], [], [], []
    by_kind: dict = {}
    for index in range(1, rounds + 1):
        result = workload.run_round(index)
        walls.append(result.wall)
        closes.append(result.close_seconds)
        failures += result.failures
        picked = [
            seconds
            for op, seconds in result.latencies
            if workload.headline is None or op.label == workload.headline
        ]
        headline.append(statistics.median(picked))
        for op, seconds in result.latencies:
            by_kind.setdefault(op.kind, []).append(seconds)
    return {
        "rounds": rounds,
        "walls": walls,
        "headline": headline,
        "headline_samples_per_round": len(picked),
        "closes": closes,
        "by_kind": by_kind,
        "every": [s for samples in by_kind.values() for s in samples],
        "failures": failures,
    }


def client_diagnostics(series: dict, ops_per_round: int) -> dict:
    """Ungated client-side numbers: per-kind medians, the tail, the mean."""

    def median_us(kind):
        samples = series["by_kind"].get(kind)
        return statistics.median(samples) * 1e6 if samples else 0.0

    return {
        "client.read_p50_us": median_us("read"),
        "client.write_p50_us": median_us("write"),
        "client.scan_p50_us": median_us("scan"),
        "client.latency_p99_us": percentile(series["every"], 0.99) * 1e6,
        "client.raw_mean_ops_s": ops_per_round
        * series["rounds"]
        / sum(series["walls"]),
    }


def run_untraced(workload, rounds: int, workdir: Path, import_s: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.set_up(workdir)
        setups.append(time.perf_counter() - start)
    gc.collect()
    gc.freeze()
    series = measure(workload, rounds)
    # memory through set-up and the timed window; the checks that follow
    # (a second instance for recovery, SQLite) are the benchmark's own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = series["failures"] + workload.final_checks(None)
    workload.tear_down()
    ops = workload.ops_per_round
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "throughput_ops_s": ops / low_quartile(series["walls"]),
        "latency_p50_us": low_quartile(series["headline"]) * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "import_s": import_s,
        "setup_runs_s": setups,
        "recovery_replay_s": workload.recovery_seconds,
        "epoch_close_p25_s": low_quartile(series["closes"]),
        **client_diagnostics(series, ops),
    }
    return metrics, detail, series, failures


def series_sum(snapshot: dict, name: str, field: str = "value") -> float:
    """Sum a metric over all of its labelled series (fleet: one per shard).

    ``field`` is "value" for a counter, "sum" for a histogram's seconds.
    """
    from repro.obs.metrics import split_series_key

    return sum(
        data[field]
        for key, data in snapshot.items()
        if split_series_key(key)[0] == name and field in data
    )


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_traced(workload, rounds: int, workdir: Path):
    import tracing
    from repro.obs import MetricsRegistry

    # 1. the same rounds on plain code: the base of trace.overhead_ratio
    #    and the source of the ungated client.* diagnostics
    workload.set_up(workdir)
    gc.collect()
    plain = measure(workload, rounds)
    failures = list(plain["failures"])
    workload.tear_down()

    # 2. wrappers + a real registry, installed before the system is built
    recorder = tracing.Recorder()
    registry = MetricsRegistry()
    with tracing.installed(recorder):
        workload.recorder = recorder
        workload.set_up(workdir, registry)
        gc.collect()
        if hasattr(workload.db, "federate_metrics"):
            workload.db.federate_metrics()
        before = registry.snapshot()
        recorder.active = True
        traced = measure(workload, rounds)
        recorder.active = False
        if hasattr(workload.db, "federate_metrics"):
            workload.db.federate_metrics()
        after = registry.snapshot()
        failures += traced["failures"]
        failures += workload.final_checks(registry)
        final = registry.snapshot()
        workload.tear_down()
        workload.recorder = None
    # leaving the block restored every attribute, or raised
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    recorder.write_jsonl(ARTIFACTS / f"trace_{workload.name}.jsonl")

    ops = workload.ops_per_round * traced["rounds"]
    kops = ops / 1000.0
    wall = sum(traced["walls"])
    driver_seconds = sum(traced["every"]) + sum(traced["closes"])
    totals = recorder.totals()

    def delta(name, field="value"):
        return series_sum(after, name, field) - series_sum(before, name, field)

    def self_us(layer):
        return totals[layer][0] / ops * 1e6

    def calls(layer):
        return totals[layer][1] / ops

    metrics = {}
    for layer in (
        "client", "service", "sgx", "portal", "sql", "storage", "memory",
        "verifier", "wal", "shard",
    ):
        metrics[f"{layer}.self_us_per_op"] = self_us(layer)
        metrics[f"{layer}.calls_per_op"] = calls(layer)
    metrics.update(client_diagnostics(plain, workload.ops_per_round))
    metrics["crypto.mac_us_per_op"] = self_us("crypto.mac")
    metrics["crypto.mac_calls_per_op"] = calls("crypto.mac")
    metrics["crypto.prf_us_per_op"] = self_us("crypto.prf")
    metrics["crypto.prf_calls_per_op"] = calls("crypto.prf")
    metrics["storage.codec_us_per_op"] = self_us("storage.codec")
    metrics["storage.codec_calls_per_op"] = calls("storage.codec")
    metrics["shard.envelope_us_per_op"] = self_us("shard.envelope")
    metrics["shard.worker_us_per_op"] = self_us("shard.worker")
    metrics["service.queue_us_per_op"] = self_us(tracing.SERVICE_QUEUE)
    rejected = sum(
        delta(f"service.rejected_{why}")
        for why in ("rate_limited", "quota", "overload", "draining")
    )
    metrics["service.rejected_per_kop"] = rejected / kops
    metrics["sgx.ecalls_per_op"] = delta("sgx.ecalls") / ops
    metrics["sgx.batched_crossings_per_op"] = delta("sgx.batched_read_crossings") / ops
    metrics["sgx.epc_swaps_per_op"] = delta("sgx.epc_swaps") / ops
    metrics["sgx.cycles_per_op"] = delta("sgx.simulated_cycles") / ops
    hits, misses = delta("sql.plan_cache_hits"), delta("sql.plan_cache_misses")
    metrics["sql.plan_cache_hit_ratio"] = ratio(hits, hits + misses)
    metrics["sql.statements_parsed_per_kop"] = delta("sql.statements_parsed") / kops
    scan_s = delta("sql.scan_seconds", "sum")
    other_s = delta("sql.other_seconds", "sum")
    metrics["sql.scan_share"] = ratio(scan_s, scan_s + other_s)
    metrics["memory.verified_reads_per_op"] = delta("memory.verified_reads") / ops
    metrics["memory.verified_writes_per_op"] = delta("memory.verified_writes") / ops
    cache_hits, cache_misses = delta("memory.cache_hits"), delta("memory.cache_misses")
    metrics["memory.cache_hit_ratio"] = ratio(cache_hits, cache_hits + cache_misses)
    metrics["memory.cache_evictions_per_kop"] = delta("memory.cache_evictions") / kops
    passes = delta("verifier.passes")
    pass_seconds = [s for s in traced["closes"] if s > 0]
    metrics["verifier.pass_s"] = (
        statistics.median(pass_seconds) if pass_seconds else 0.0
    )
    metrics["verifier.cells_scanned_per_pass"] = ratio(
        delta("verifier.cells_scanned"), passes
    )
    metrics["verifier.share_of_wall"] = totals["verifier"][0] / wall
    appends = delta("wal.appends")
    wal_bytes = delta("wal.bytes_written")
    metrics["wal.syncs_per_write"] = ratio(delta("wal.syncs"), appends)
    metrics["wal.bytes_per_op"] = wal_bytes / ops
    metrics["wal.bytes_per_user_byte"] = ratio(
        wal_bytes, workload.user_bytes_per_round * traced["rounds"]
    )
    metrics["recovery.replay_s"] = workload.recovery_seconds
    metrics["recovery.records_replayed"] = series_sum(
        final, "recovery.records_replayed"
    )
    requests = delta("shard.requests")
    scattered = delta("shard.queries_scattered")
    pruned = delta("shard.partitions_pruned")
    shards = getattr(workload, "SHARDS", 0)
    metrics["shard.requests_per_op"] = requests / ops
    metrics["shard.pruned_ratio"] = ratio(pruned, scattered * shards)
    metrics["shard.merge_rows_per_op"] = delta("shard.merge_rows") / ops
    layer_seconds = sum(
        seconds for layer, (seconds, _) in totals.items()
        if layer != tracing.SERVICE_QUEUE
    )
    metrics["trace.coverage"] = layer_seconds / driver_seconds
    metrics["trace.overhead_ratio"] = low_quartile(traced["walls"]) / low_quartile(
        plain["walls"]
    )
    detail = {
        "spans_written": len(recorder.spans),
        "layer_self_seconds": {k: v[0] for k, v in totals.items()},
        "traced_wall_s": wall,
        "driver_seconds": driver_seconds,
    }
    return metrics, detail, traced, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the round count (self-check only)")
    parser.add_argument("--spawned-at", type=float, default=time.time(),
                        help="time.time() when run.py started this process")
    args = parser.parse_args(argv)

    pinned = pin_to_one_cpu()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # imports every repro module the workloads use
    import repro.wal  # noqa: F401  (otherwise imported lazily by VeriDB)

    # interpreter start + imports: paid once per process, part of setup_s
    import_s = time.time() - args.spawned_at
    cls = workloads.WORKLOADS[args.workload]
    rounds = args.rounds or planned_rounds(args.seconds, cls.rounds_per_second)
    if args.trace:
        rounds = max(2, rounds // 4)
    workdir = ARTIFACTS / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(args.seed, rounds)
        if args.trace:
            metrics, detail, series, failures = run_traced(workload, rounds, workdir)
        else:
            metrics, detail, series, failures = run_untraced(
                workload, rounds, workdir, import_s
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = workload.ops_per_round * series["rounds"] + 1  # + final checks
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_digest": workload.inputs_digest(),
        "trace": bool(args.trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "failures": failures[:10],
        "metrics": metrics,
        "detail": detail,
        "samples": {
            "rounds": series["rounds"],
            "ops_per_round": workload.ops_per_round,
            "headline_op": workload.headline or "all ops",
            "headline_samples_per_round": series["headline_samples_per_round"],
        },
        "protocol": {
            "pinned": pinned,
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "nproc": os.cpu_count(),
            "artifacts": str(ARTIFACTS.relative_to(ROOT)),
        },
        "config": workload.config(),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
