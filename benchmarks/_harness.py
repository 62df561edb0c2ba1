"""Shared machinery for the five figure mains (``test_fig9`` … ``test_fig13``).

Each figure module holds a ``_shape`` test (the figure's qualitative
claims, run under pytest) and a ``__main__`` that prints the figure as
a table and writes ``BENCH_<name>.json``. Sizes are scaled for a
pure-Python engine; set ``REPRO_BENCH_SCALE`` (default 1.0) to grow or
shrink every workload proportionally.

The paper's absolute numbers come from a C++/SGX prototype; what these
harnesses reproduce is each figure's *shape* — which configuration wins
and by roughly what factor (see EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

from repro.baselines.mbtree import MBTree
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.obs import (
    KNOWN_LAYERS,
    MetricsRegistry,
    default_registry,
    layer_breakdown,
    scoped_registry,
)
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.workloads.micro import KVTable, MicroWorkload, load_kv
from repro.workloads.runner import LatencyRecorder, run_operations
from repro.workloads.tpcc import TPCCBench
from repro.workloads.tpch import QUERIES, load_tpch

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int, minimum: int = 1) -> int:
    return max(minimum, int(n * SCALE))


# ----------------------------------------------------------------------
# store builders for the micro benchmarks (Figures 9-11)
# ----------------------------------------------------------------------
def build_kv(
    config: StorageConfig, n_initial: int, seed: int = 0
) -> tuple[KVTable, StorageEngine, MicroWorkload]:
    engine = StorageEngine(config)
    kv = KVTable(engine)
    workload = MicroWorkload(n_initial=n_initial, seed=seed)
    load_kv(kv, workload.initial_pairs())
    return kv, engine, workload


class MBTreeKV:
    """KV façade over the MB-Tree baseline for the shared op stream.

    Values are encoded to bytes; each operation pays the MB-Tree costs —
    path rehash under the root lock for writes, ADS construction for
    reads — which is exactly what Figure 11 compares.
    """

    def __init__(self):
        self.tree = MBTree()

    def get(self, key):
        value, _proof = self.tree.get(key)
        return value

    def insert(self, key, value: str):
        self.tree.insert(key, value.encode("utf-8"))

    def update(self, key, value: str):
        return self.tree.update(key, value.encode("utf-8"))

    def delete(self, key):
        return self.tree.delete(key)


def build_mbtree(n_initial: int, seed: int = 0) -> tuple[MBTreeKV, MicroWorkload]:
    kv = MBTreeKV()
    workload = MicroWorkload(n_initial=n_initial, seed=seed)
    load_kv(kv, workload.initial_pairs())
    return kv, workload


# ----------------------------------------------------------------------
# figure experiments
# ----------------------------------------------------------------------
FIG9_CONFIGS = {
    "Baseline": StorageConfig(verification=False),
    "RSWS": StorageConfig(verify_metadata=False),
    "RSWS w/ metadata": StorageConfig(verify_metadata=True),
}


def run_fig9(
    n_initial: int, n_ops: int
) -> tuple[dict[str, LatencyRecorder], dict[str, int]]:
    """Latency of reads/writes under the three Figure 9 configurations,
    and the RS/WS digest updates each configuration made (Section 4.3's
    metadata-exclusion claim is the ratio of the two RSWS counts)."""
    results, rsws_ops = {}, {}
    for label, config in FIG9_CONFIGS.items():
        # One registry serves the whole run; zero it per configuration so
        # the printed breakdown reflects the last measured phase, not the
        # aggregate of every repetition (no-op under the NullRegistry).
        default_registry().reset()
        kv, engine, workload = build_kv(config, n_initial)
        before = engine.vmem.rsws.total_operations()
        results[label] = run_operations(kv, workload.operations(n_ops))
        rsws_ops[label] = engine.vmem.rsws.total_operations() - before
    return results, rsws_ops


FIG10_FREQUENCIES = (50, 100, 200, 500, 1000)


def run_fig10(n_initial: int, n_ops: int) -> dict[str, LatencyRecorder]:
    """Latency vs verification frequency (one page scan per N ops)."""
    results = {}
    for freq in FIG10_FREQUENCIES:
        default_registry().reset()
        kv, engine, workload = build_kv(StorageConfig(), n_initial)
        engine.enable_continuous_verification(freq)
        results[str(freq)] = run_operations(kv, workload.operations(n_ops))
        engine.disable_continuous_verification()
    return results


def run_fig11(n_initial: int, n_ops: int) -> dict:
    """VeriDB (verification every 1000 ops) vs the MB-Tree baseline.

    Returns per-kind latency recorders plus the per-operation *crypto
    work* (hash-function invocations and bytes hashed) of each system —
    the machine-independent quantity behind the paper's 94-96% latency
    gap (a Python interpreter flattens absolute latencies; the work
    ratio does not flatten).
    """
    default_registry().reset()
    kv, engine, workload = build_kv(StorageConfig(), n_initial)
    engine.enable_continuous_verification(1000)
    prf_before = engine.vmem.prf.calls
    veridb = run_operations(kv, workload.operations(n_ops))
    veridb_work = {
        "hashes_per_op": (engine.vmem.prf.calls - prf_before) / n_ops,
        # every PRF digests one cell: ~(value + key + stamp) bytes
        "bytes_per_op": (engine.vmem.prf.calls - prf_before) * 540 / n_ops,
    }
    engine.disable_continuous_verification()
    mb, workload = build_mbtree(n_initial)
    hashes_before = mb.tree.hash_invocations
    bytes_before = mb.tree.bytes_hashed
    mbtree = run_operations(mb, workload.operations(n_ops))
    mbtree_work = {
        "hashes_per_op": (mb.tree.hash_invocations - hashes_before) / n_ops,
        "bytes_per_op": (mb.tree.bytes_hashed - bytes_before) / n_ops,
    }
    return {
        "latency": {"MBT": mbtree, "VeriDB": veridb},
        "work": {"MBT": mbtree_work, "VeriDB": veridb_work},
    }


FIG12_QUERIES = (
    ("Q1", "Q1", None),
    ("Q6", "Q6", None),
    ("Q19 (merge)", "Q19", "merge"),
    ("Q19 (nested-loop)", "Q19", "nested_loop"),
)


def build_tpch(verification: bool, scale_factor: float, seed: int = 0) -> VeriDB:
    config = VeriDBConfig(
        storage=StorageConfig(verification=verification), key_seed=seed
    )
    db = VeriDB(config)
    load_tpch(db, scale_factor=scale_factor, seed=seed)
    return db


def run_fig12(scale_factor: float, repeats: int = 3) -> list[dict]:
    """TPC-H execution time split into scan vs other nodes, w/ and w/o RSWS.

    Each (query, config) runs ``repeats`` times; the run with the lowest
    total is reported (standard noise suppression for single-shot
    queries). The two configurations alternate inside every repeat, so a
    slow spell of the machine cannot land on one side of the comparison
    only. Each row also carries the run's verified reads, which the
    table divides the overhead by.
    """
    databases = {
        "VeriDB (w/ RSWS)": build_tpch(True, scale_factor),
        "Baseline": build_tpch(False, scale_factor),
    }
    rows = []
    for label, query, hint in FIG12_QUERIES:
        best: dict[str, dict] = {}
        for _ in range(repeats):
            for config, db in databases.items():
                analyzed = db.explain_analyze(QUERIES[query], join_hint=hint)
                seconds = analyzed.seconds()
                if (
                    config not in best
                    or seconds["total_s"] < best[config]["total_s"]
                ):
                    best[config] = {
                        "query": label,
                        "config": config,
                        **seconds,
                        "verified_reads": analyzed.data["totals"]["verified_reads"],
                    }
        rows.extend(best.values())
    return rows


FIG13_RSWS_SERIES = ("no RSWS updates", 1024, 128, 16, 4, 1)


def build_tpcc(rsws: int | str, warehouses: int, seed: int = 0) -> TPCCBench:
    if rsws == "no RSWS updates":
        storage = StorageConfig(verification=False)
    else:
        storage = StorageConfig(rsws_partitions=int(rsws))
    db = VeriDB(VeriDBConfig(storage=storage, key_seed=seed))
    bench = TPCCBench(db, warehouses=warehouses, seed=seed)
    bench.load()
    return bench


def run_fig13(
    warehouses: int,
    clients: tuple[int, ...],
    txns_per_client: int,
    rsws_series=FIG13_RSWS_SERIES,
) -> dict[str, dict[int, float]]:
    """TPC-C throughput vs client count for each RSWS partition count."""
    results: dict[str, dict[int, float]] = {}
    for rsws in rsws_series:
        default_registry().reset()
        series: dict[int, float] = {}
        for n_clients in clients:
            bench = build_tpcc(rsws, warehouses)
            series[n_clients] = bench.run_clients(n_clients, txns_per_client)
        results[str(rsws)] = series
    return results


# ----------------------------------------------------------------------
# pretty printing
# ----------------------------------------------------------------------
def print_latency_table(title: str, results: dict[str, LatencyRecorder]) -> None:
    kinds = ("get", "insert", "delete", "update")
    print(f"\n{title}")
    header = f"{'configuration':<24}" + "".join(f"{k:>10}" for k in kinds)
    print(header)
    print("-" * len(header))
    for label, recorder in results.items():
        cells = "".join(f"{recorder.mean_us(k):>10.1f}" for k in kinds)
        print(f"{label:<24}{cells}")
    print("(mean latency, microseconds)")


def print_fig12_table(rows: list[dict]) -> None:
    """The Figure 12 table. Beside the relative overhead, ``us/read`` is
    the added time per verified read: cutting work both configurations
    share raises the relative band without making verification dearer,
    and this column tells the two apart."""
    print("\nFigure 12: TPC-H execution time (seconds)")
    header = (
        f"{'query':<20}{'configuration':<20}{'total':>10}{'scan':>10}"
        f"{'other':>10}{'overhead':>10}{'us/read':>10}"
    )
    print(header)
    print("-" * len(header))
    baselines = {
        row["query"]: row["total_s"] for row in rows if row["config"] == "Baseline"
    }
    for row in rows:
        base = baselines.get(row["query"], 0.0)
        overhead = per_read = "-"
        if base > 0 and row["config"] != "Baseline":
            overhead = f"{(row['total_s'] / base - 1) * 100:+.0f}%"
            if row["verified_reads"]:
                per_read = f"{(row['total_s'] - base) / row['verified_reads'] * 1e6:.1f}"
        print(
            f"{row['query']:<20}{row['config']:<20}{row['total_s']:>10.3f}"
            f"{row['scan_s']:>10.3f}{row['other_s']:>10.3f}{overhead:>10}"
            f"{per_read:>10}"
        )


def print_fig13_table(results: dict[str, dict[int, float]]) -> None:
    print("\nFigure 13: TPC-C throughput (transactions/second)")
    clients = sorted(next(iter(results.values())))
    header = f"{'RSWS configuration':<20}" + "".join(
        f"{c:>9}" for c in clients
    )
    print(header + "   (clients)")
    print("-" * len(header))
    for label, series in results.items():
        cells = "".join(f"{series[c]:>9.0f}" for c in clients)
        print(f"{label:<20}{cells}")


# ----------------------------------------------------------------------
# machine-readable results
# ----------------------------------------------------------------------
def bench_dir() -> str:
    """The run-artifact directory: ``REPRO_BENCH_DIR`` or ``.bench/``.

    Benchmark JSON documents, smoke snapshots and event traces land here
    instead of littering the repo root; the directory is created on
    demand and is gitignored (committed reference numbers live in
    ``benchmarks/baselines/``, a separate, tracked directory).
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.environ.get("REPRO_BENCH_DIR") or os.path.join(root, ".bench")
    os.makedirs(path, exist_ok=True)
    return path


def write_bench_json(name: str, payload: dict) -> str:
    """Write a benchmark's results to ``BENCH_<name>.json`` in bench_dir.

    Every figure ``__main__`` emits its numbers this way (in addition to
    the printed table) so CI can upload them as artifacts and compare
    them with the committed baselines. The payload is wrapped with the
    benchmark name and the scale the run used; values must already be
    JSON-serializable (plain dicts/lists/numbers/strings).
    """
    path = os.path.join(bench_dir(), f"BENCH_{name}.json")
    doc = {"benchmark": name, "scale": SCALE, "results": payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\n[bench-json] wrote {path}")
    print_baseline_comparison(name, doc)
    return path


# ----------------------------------------------------------------------
# committed baselines and regression comparison
# ----------------------------------------------------------------------
#: where reference BENCH_*.json documents live, committed to the repo so
#: CI (and anyone re-running a figure) can diff against a known run
BASELINE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines")

#: a latency-like metric that grew by more than this fraction regressed
THRESHOLD = 0.25

#: deltas on metrics below these floors are noise, not regressions
NOISE_FLOOR_SECONDS = 1e-3
NOISE_FLOOR_US = 50.0


def load_baseline(name: str) -> dict | None:
    """The committed baseline document for benchmark ``name``, if any."""
    path = os.path.join(BASELINE_DIR, f"BENCH_{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def flatten_numeric(payload, prefix: str = "") -> dict[str, float]:
    """Flatten nested result dicts to ``a.b.c -> number`` paths."""
    out: dict[str, float] = {}
    if isinstance(payload, list):  # rows of a figure table: index as key
        payload = dict(enumerate(payload))
    if isinstance(payload, dict):
        for key, value in payload.items():
            out.update(flatten_numeric(value, f"{prefix}{key}."))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        out[prefix[:-1]] = float(payload)
    return out


def _latency_unit(path: str) -> str | None:
    """``"s"``/``"us"`` when the path names a latency, else None.

    The unit marker may sit on any segment — ``mean_latency_us.RSWS.get``
    and ``queries.0.total_s`` are both latencies — so every segment is
    checked, not just the leaf.
    """
    for segment in path.split("."):
        if segment.endswith("_per_s"):
            return None  # a rate: bigger is better, never gated
        if segment.endswith("_us"):
            return "us"
        if segment.endswith(("_s", "_seconds")):
            return "s"
    # LatencyRecorder report leaves are per-kind means in microseconds
    if path.rsplit(".", 1)[-1] in ("get", "insert", "update", "delete"):
        return "us"
    return None


def _above_noise_floor(path: str, value: float) -> bool:
    if _latency_unit(path) == "s":
        return value >= NOISE_FLOOR_SECONDS
    return value >= NOISE_FLOOR_US


def compare_with_baseline(doc: dict, baseline: dict) -> tuple[list[dict], list[dict]]:
    """Diff a run against a baseline document.

    Returns ``(regressions, comparisons)``: every latency-like metric
    present in both documents is compared, and those whose relative
    increase exceeds ``THRESHOLD`` (and whose baseline *and* absolute
    increase both clear the noise floor) are regressions. Non-matching
    scales return no comparisons at all — a scale-0.05 run against a
    scale-0.2 baseline proves nothing.
    """
    if doc.get("scale") != baseline.get("scale"):
        return [], []
    current = flatten_numeric(doc.get("results", {}))
    reference = flatten_numeric(baseline.get("results", {}))
    comparisons: list[dict] = []
    regressions: list[dict] = []
    for path in sorted(set(current) & set(reference)):
        if _latency_unit(path) is None:
            continue
        base, now = reference[path], current[path]
        if base <= 0.0 or not _above_noise_floor(path, base):
            continue
        ratio = now / base - 1.0
        row = {"metric": path, "baseline": base, "current": now, "delta": ratio}
        comparisons.append(row)
        # a regression must be big in relative AND absolute terms: a 25%
        # jump on a 70 us metric is scheduler jitter, not a slowdown
        if ratio > THRESHOLD and _above_noise_floor(path, now - base):
            regressions.append(row)
    return regressions, comparisons


def print_baseline_comparison(name: str, doc: dict) -> None:
    """Informational diff against the committed baseline (never fails).

    The CI gate lives in ``benchmarks/perf_trend.py``; this printout
    gives a local run the same signal without the exit code.
    """
    baseline = load_baseline(name)
    if baseline is None:
        return
    if doc.get("scale") != baseline.get("scale"):
        print(
            f"[baseline] {name}: scale mismatch "
            f"(run={doc.get('scale')}, baseline={baseline.get('scale')}); "
            "skipping comparison"
        )
        return
    regressions, comparisons = compare_with_baseline(doc, baseline)
    if not comparisons:
        print(f"[baseline] {name}: no comparable latency metrics")
        return
    worst = max(comparisons, key=lambda row: row["delta"])
    print(
        f"[baseline] {name}: {len(comparisons)} latency metrics compared, "
        f"{len(regressions)} above +{THRESHOLD:.0%}; worst "
        f"{worst['metric']} {worst['delta']:+.1%}"
    )
    for row in regressions:
        print(
            f"[baseline]   REGRESSION {row['metric']}: "
            f"{row['baseline']:.4g} -> {row['current']:.4g} "
            f"({row['delta']:+.1%})"
        )


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
@contextmanager
def obs_scope():
    """Install a fresh metrics registry as the process default.

    Every system built inside the block (engines, portals, cycle meters)
    binds real instruments instead of the zero-cost no-op defaults, so a
    direct figure run can print the per-layer breakdown afterwards. The
    ``_shape`` tests never enter this scope and keep the unobserved fast
    path.
    """
    with scoped_registry(MetricsRegistry()) as registry:
        yield registry


def _format_metric_value(name: str, data: dict) -> str:
    if data["type"] in ("counter", "gauge"):
        value = data["value"]
        if isinstance(value, float) and not value.is_integer():
            return f"{value:.2f}"
        return f"{int(value)}"
    # histogram: seconds-valued series (by naming convention) are shown
    # in microseconds; others (simulated cycles, sizes) are unit-less
    if data["count"] == 0:
        return "(no samples)"
    if not name.endswith("_seconds"):
        return (
            f"n={data['count']}  mean={data['mean']:.0f}"
            f"  max={data['max']:.0f}  sum={data['sum']:.0f}"
        )
    return (
        f"n={data['count']}  mean={data['mean'] * 1e6:.1f}us"
        f"  max={data['max'] * 1e6:.1f}us  sum={data['sum'] * 1e3:.2f}ms"
    )


def print_metrics_breakdown(
    registry, title: str = "Per-layer observability breakdown"
) -> None:
    """Print one section per instrumented layer of the stack.

    Layers with no activity during the run are still listed, so a reader
    can tell "not exercised" apart from "not instrumented".
    """
    grouped = layer_breakdown(registry.snapshot())
    print(f"\n{title}")
    print("=" * 66)
    for layer in KNOWN_LAYERS:
        metrics = grouped.get(layer, {})
        print(f"[{layer}]" + ("  (no activity)" if not metrics else ""))
        for name, data in metrics.items():
            short = name.split(".", 1)[1]
            print(f"  {short:<34}{_format_metric_value(name, data)}")
    extra = {
        layer: metrics
        for layer, metrics in grouped.items()
        if layer not in KNOWN_LAYERS
    }
    for layer, metrics in extra.items():
        print(f"[{layer}]")
        for name, data in metrics.items():
            print(f"  {name:<34}{_format_metric_value(name, data)}")
