"""EXPLAIN ANALYZE and per-query trace attribution (system-level).

Pins the tentpole invariant: the per-operator stats a traced query
reports must sum (exactly, for counted costs) to the deltas the
process-wide ``repro.obs`` registry saw for that query — and two queries
interleaving on one database must report disjoint, correctly-attributed
stats.
"""

import threading

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.errors import ConfigurationError
from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    scoped_event_sink,
    scoped_registry,
)
from repro.obs import trace_context as tc_module
from repro.storage.config import StorageConfig
from repro.workloads.tpch import QUERIES, load_tpch

#: the counted (non-wall-clock) costs whose trace totals must equal the
#: registry deltas exactly: (registry counter name, OpStats field)
COUNTED = (
    ("memory.verified_reads", "verified_reads"),
    ("memory.cache_hits", "cache_hits"),
    ("memory.cache_misses", "cache_misses"),
    ("sgx.ecalls", "ecalls"),
    ("sgx.epc_swaps", "epc_swaps"),
    ("sgx.simulated_cycles", "simulated_cycles"),
)


def counter_value(snapshot: dict, name: str) -> float:
    return snapshot.get(name, {}).get("value", 0)


def build_db(registry, cache_bytes=0, trace_sample_rate=0.0) -> VeriDB:
    return VeriDB(
        VeriDBConfig(
            key_seed=11,
            storage=StorageConfig(cache_bytes=cache_bytes),
            trace_sample_rate=trace_sample_rate,
        ),
        registry=registry,
    )


# ----------------------------------------------------------------------
# the sum property on a TPC-H join
# ----------------------------------------------------------------------
def test_tpch_join_operator_stats_sum_to_registry_deltas():
    reg = MetricsRegistry()
    with scoped_registry(reg):
        db = VeriDB(VeriDBConfig(key_seed=20))
        load_tpch(db, scale_factor=0.0002, seed=1)
        before = reg.snapshot()
        result = db.explain_analyze(QUERIES["Q19"])
        after = reg.snapshot()

    totals = result.totals()
    for counter_name, field in COUNTED:
        delta = counter_value(after, counter_name) - counter_value(
            before, counter_name
        )
        assert totals[field] == delta, (
            f"{field}: trace total {totals[field]} != "
            f"registry delta {delta} ({counter_name})"
        )
    # the join actually exercised the verified read path
    assert totals["verified_reads"] > 0
    # in-process (no ECall), and a verified read crosses nothing
    assert totals["simulated_cycles"] == 40_000 * totals["epc_swaps"]
    # per-operator wall times stay within the query's elapsed wall clock
    assert sum(f.wall_seconds for f in result.trace.frames()) <= (
        result.trace.elapsed * 1.05 + 1e-6
    )


def test_explain_analyze_reports_per_operator_attribution():
    reg = MetricsRegistry()
    with scoped_registry(reg):
        db = build_db(reg)
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.sql("CREATE TABLE u (id INT PRIMARY KEY, tid INT)")
        db.load_rows("t", [(i, i * 2) for i in range(60)])
        db.load_rows("u", [(i, i % 10) for i in range(60)])
        result = db.explain_analyze(
            "SELECT t.id, u.id FROM t, u WHERE t.id = u.tid"
        )

    data = result.data
    assert data["plan"] is not None
    # collect the plan tree's nodes
    nodes = []

    def walk(node):
        nodes.append(node)
        for child in node["children"]:
            walk(child)

    walk(data["plan"])
    scans = [n for n in nodes if n["op"] == "SeqScanOp"]
    assert len(scans) == 2
    for scan in scans:
        assert scan["verified_reads"] > 0
        # a verified read crosses nothing: a scan pays only its EPC swaps
        assert scan["simulated_cycles"] == 40_000 * scan["epc_swaps"]
        assert scan["rows_out"] == 60
    # non-leaf operators did not read storage themselves
    join = next(n for n in nodes if "Join" in n["op"])
    assert join["verified_reads"] == 0
    # machine-readable and human forms agree on the totals
    assert data["totals"]["verified_reads"] == result.totals()["verified_reads"]
    text = result.text
    assert "SeqScan" in text
    assert "reads=" in text and "cache=" in text and "cycles=" in text
    assert "totals:" in text
    # through the client the whole query costs one ECall plus its swaps
    client = db.connect()
    before = reg.snapshot()
    client.execute("SELECT t.id, u.id FROM t, u WHERE t.id = u.tid")
    after = reg.snapshot()
    ecalls, swaps, cycles = (
        counter_value(after, name) - counter_value(before, name)
        for name in ("sgx.ecalls", "sgx.epc_swaps", "sgx.simulated_cycles")
    )
    assert ecalls == 1
    assert cycles == 8_000 + 40_000 * swaps


def test_explain_analyze_rows_match_plain_execution():
    reg = MetricsRegistry()
    with scoped_registry(reg):
        db = build_db(reg)
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.load_rows("t", [(i, i * 3) for i in range(30)])
        plain = db.sql("SELECT id, v FROM t WHERE v > 30")
        analyzed = db.explain_analyze("SELECT id, v FROM t WHERE v > 30")
    assert analyzed.rows == plain.rows
    assert analyzed.columns == plain.columns


# ----------------------------------------------------------------------
# fused columnar pipelines keep the attribution exact
# ----------------------------------------------------------------------
def test_fused_pipeline_stats_sum_to_registry_deltas():
    """Scan→filter→project fusion must not lose or double-count costs.

    The fused node does the filter+project work (and owns that lap);
    the scan stays its child and owns every verified read. The sum
    property over the whole tree must still hold exactly.
    """
    reg = MetricsRegistry()
    with scoped_registry(reg):
        db = build_db(reg)
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)")
        db.load_rows("t", [(i, i * 3 % 40, i % 6) for i in range(90)])
        before = reg.snapshot()
        result = db.explain_analyze(
            "SELECT id, v + w FROM t WHERE v > 5 AND w <> 2"
        )
        after = reg.snapshot()

    totals = result.totals()
    for counter_name, field in COUNTED:
        delta = counter_value(after, counter_name) - counter_value(
            before, counter_name
        )
        assert totals[field] == delta, (
            f"{field}: trace total {totals[field]} != "
            f"registry delta {delta} ({counter_name})"
        )

    nodes = []

    def walk(node):
        nodes.append(node)
        for child in node["children"]:
            walk(child)

    walk(result.data["plan"])
    fused = next(n for n in nodes if n["op"] == "FusedScanFilterProjectOp")
    scan = next(n for n in nodes if n["op"] == "SeqScanOp")
    # the scan is the fused node's child and owns all storage reads
    assert scan in fused["children"]
    assert scan["verified_reads"] > 0
    assert fused["verified_reads"] == 0
    # the fused node did the filtering: fewer rows out than the scan fed
    assert scan["rows_out"] == 90
    assert 0 < fused["rows_out"] < 90
    # both stages show up in the rendered plan
    assert "FusedScanFilterProject" in result.text
    assert "SeqScan" in result.text
    # the fused-batch counter attributes the pipeline's work
    assert counter_value(after, "sql.fused_pipeline_batches") > counter_value(
        before, "sql.fused_pipeline_batches"
    )


def test_prepared_point_select_books_its_read_to_the_lookup():
    """A cached point SELECT is one node: its per-op stats equal the
    registry deltas, and its verified read is the lookup's."""
    reg = MetricsRegistry()
    point = "SELECT v FROM t WHERE id = 7"
    with scoped_registry(reg):
        db = build_db(reg)
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)")
        db.load_rows("t", [(i, i * 3, i % 6) for i in range(40)])
        db.prepare(point)  # the statement is cached before it is analyzed
        before = reg.snapshot()
        result = db.explain_analyze(point)
        after = reg.snapshot()

    assert result.rows == [(21,)]
    assert counter_value(after, "sql.plan_cache_hits") - counter_value(
        before, "sql.plan_cache_hits"
    ) == 1
    totals = result.totals()
    for counter_name, field in COUNTED:
        delta = counter_value(after, counter_name) - counter_value(
            before, counter_name
        )
        assert totals[field] == delta, (
            f"{field}: trace total {totals[field]} != "
            f"registry delta {delta} ({counter_name})"
        )
    lookup = result.data["plan"]
    assert lookup["op"] == "PointLookupOp" and lookup["children"] == []
    assert "cols=[v]" in lookup["label"]
    assert (lookup["rows_out"], lookup["batches_out"]) == (1, 1)
    assert lookup["verified_reads"] == totals["verified_reads"] > 0
    assert result.data["unattributed"]["verified_reads"] == 0


# ----------------------------------------------------------------------
# interleaved queries attribute disjointly
# ----------------------------------------------------------------------
def test_interleaved_queries_report_disjoint_stats():
    """Two queries racing on one database split every cost correctly.

    Thread A runs a scan-heavy join over t1 (batched verified reads);
    thread B runs repeated point lookups on t2 (record-cache hits). The
    registry sees the union; each trace must see exactly its own share —
    so the two totals must sum to the registry deltas, and each trace
    must carry the signature of its own workload.
    """
    reg = MetricsRegistry()
    with scoped_registry(reg):
        db = build_db(reg, cache_bytes=1 << 20)
        db.sql("CREATE TABLE t1 (id INT PRIMARY KEY, grp INT)")
        db.sql("CREATE TABLE t2 (id INT PRIMARY KEY, v INT)")
        db.load_rows("t1", [(i, i % 5) for i in range(80)])
        db.load_rows("t2", [(i, i * 7) for i in range(20)])
        # warm t2's record cache so B's lookups hit
        for i in range(20):
            db.sql(f"SELECT * FROM t2 WHERE id = {i}")

        barrier = threading.Barrier(2)
        outcomes = {}

        def scan_join():
            barrier.wait()
            outcomes["A"] = db.explain_analyze(
                "SELECT a.id, b.id FROM t1 a, t1 b WHERE a.grp = b.grp"
            )

        def point_lookups():
            barrier.wait()
            results = []
            for _ in range(3):
                for i in range(20):
                    results.append(
                        db.explain_analyze(f"SELECT v FROM t2 WHERE id = {i}")
                    )
            outcomes["B"] = results

        before = reg.snapshot()
        threads = [
            threading.Thread(target=scan_join),
            threading.Thread(target=point_lookups),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = reg.snapshot()

    totals_a = outcomes["A"].totals()
    totals_b = {field: 0 for _, field in COUNTED}
    for r in outcomes["B"]:
        for _, field in COUNTED:
            totals_b[field] += r.totals()[field]

    # the union is exactly the registry's delta, split with no leakage
    for counter_name, field in COUNTED:
        delta = counter_value(after, counter_name) - counter_value(
            before, counter_name
        )
        assert totals_a[field] + totals_b[field] == delta, (
            f"{field}: {totals_a[field]} + {totals_b[field]} != {delta}"
        )
    # workload signatures landed on the right trace: A's scans covered
    # t1 — from verified storage or the record cache
    assert totals_a["verified_reads"] + totals_a["cache_hits"] >= 80
    assert totals_b["cache_hits"] >= 60  # warmed point lookups hit
    # B's lookups never scanned: each read at most a handful of cells
    assert totals_b["verified_reads"] <= len(outcomes["B"]) * 5


# ----------------------------------------------------------------------
# portal sampling
# ----------------------------------------------------------------------
def run_client_queries(db, n):
    client = db.connect("sampler")
    for i in range(n):
        client.execute(f"SELECT * FROM t WHERE id = {i % 10}")


def test_portal_sampling_rate_zero_never_traces():
    reg = MetricsRegistry()
    with scoped_registry(reg):
        db = build_db(reg, trace_sample_rate=0.0)
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.load_rows("t", [(i, i) for i in range(10)])
        run_client_queries(db, 8)
    assert counter_value(reg.snapshot(), "portal.traces_sampled") == 0


def test_portal_sampling_rate_one_traces_every_query():
    reg = MetricsRegistry()
    with scoped_registry(reg):
        db = build_db(reg, trace_sample_rate=1.0)
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.load_rows("t", [(i, i) for i in range(10)])
        with scoped_event_sink() as sink:
            run_client_queries(db, 6)
    assert counter_value(reg.snapshot(), "portal.traces_sampled") == 6
    events = sink.events_of("query_trace")
    assert len(events) == 6
    for event in events:
        assert event["totals"]["verified_reads"] > 0
        assert event["verified"] is True


def test_portal_sampling_is_deterministic_fraction():
    reg = MetricsRegistry()
    with scoped_registry(reg):
        db = build_db(reg, trace_sample_rate=0.25)
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.load_rows("t", [(i, i) for i in range(10)])
        run_client_queries(db, 8)
    # exactly every fourth query is traced
    assert counter_value(reg.snapshot(), "portal.traces_sampled") == 2


def test_trace_sample_rate_validated():
    with pytest.raises(ConfigurationError):
        VeriDBConfig(trace_sample_rate=1.5)
    with pytest.raises(ConfigurationError):
        VeriDBConfig(trace_sample_rate=-0.1)


# ----------------------------------------------------------------------
# the zero-cost guarantee, end to end
# ----------------------------------------------------------------------
def test_untraced_query_never_reads_trace_contextvar(monkeypatch):
    """With nobody looking, a full query touches no trace machinery.

    Nobody looking = the null registry and no entered trace (a real
    registry opens a run ledger per statement to read its plan metrics
    from). The gate is one module-global integer compare; poisoning the
    ContextVar proves no hot-path component reaches past it.
    """

    class Poisoned:
        def get(self):  # pragma: no cover - failure path
            raise AssertionError("trace ContextVar read on untraced path")

    db = build_db(NULL_REGISTRY, cache_bytes=1 << 20)
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.load_rows("t", [(i, i) for i in range(40)])
    monkeypatch.setattr(tc_module, "_current", Poisoned())
    result = db.sql("SELECT * FROM t WHERE v > 10")
    assert result.rowcount == 29
    client = db.connect("untraced")
    client.execute("SELECT * FROM t WHERE id = 3")
