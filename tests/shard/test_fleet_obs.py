"""Fleet observability, system level (the PR's acceptance criteria).

* trace propagation: a scattered ``explain_analyze`` stitches one
  remote segment per worker, with real per-operator stats, and the
  stitched counted totals equal the sum of the worker registry deltas
  (the sharded extension of the PR 5 exactness invariant);
* the same stitching works under the ``process`` transport, where the
  segment genuinely crossed a process boundary inside a MAC'd reply;
* metrics federation folds worker registry deltas into labeled
  coordinator series, and the fleet exposition lints clean;
* ``health()`` raises ``worker_down`` when a worker is killed and
  clears it after ``restart_worker``, with both events in the JSONL
  sink — and surfaces through ``QueryService.health()``.
"""

from repro.core.config import ShardConfig, VeriDBConfig
from repro.obs import (
    JsonlEventSink,
    MetricsRegistry,
    lint_prometheus,
    render_prometheus,
    scoped_event_sink,
)
from repro.shard import ShardedDatabase

#: (worker registry counter, OpStats/segment field) pairs that must
#: match exactly — same table as tests/sql/test_explain_analyze.py
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


def fleet(**kwargs):
    kwargs.setdefault("shard_count", 2)
    kwargs.setdefault("base", VeriDBConfig(key_seed=13))
    return ShardedDatabase(ShardConfig(**kwargs), registry=MetricsRegistry())


def load_users(db, rows=40):
    db.execute(
        "CREATE TABLE users (id INT PRIMARY KEY, city TEXT, score INT)"
    )
    db.load_rows(
        "users",
        [(i, ["lyon", "oslo"][i % 2], i * 10) for i in range(rows)],
    )


# ----------------------------------------------------------------------
# trace propagation + stitching (inproc: exactness against registries)
# ----------------------------------------------------------------------
def test_stitched_totals_equal_worker_registry_deltas():
    with fleet() as db:
        load_users(db)
        workers = [link.worker for link in db.links]
        before = [worker.obs.snapshot() for worker in workers]
        result = db.explain_analyze(
            "SELECT city, COUNT(*), SUM(score) FROM users "
            "WHERE score > 50 GROUP BY city"
        )
        after = [worker.obs.snapshot() for worker in workers]

    segments = result.remote_segments()
    assert len(segments) == 2
    assert sorted(segment["shard"] for segment in segments) == [0, 1]
    remote = result.remote_totals()
    for counter_name, field in COUNTED:
        delta = sum(
            counter_value(after[i], counter_name)
            - counter_value(before[i], counter_name)
            for i in range(len(workers))
        )
        assert remote[field] == delta, (
            f"{field}: stitched remote total {remote[field]} != "
            f"summed worker registry delta {delta} ({counter_name})"
        )
        # and per-shard: each segment matches its own worker exactly
        for i, segment in enumerate(
            sorted(segments, key=lambda s: s["shard"])
        ):
            assert segment["totals"][field] == counter_value(
                after[i], counter_name
            ) - counter_value(before[i], counter_name)
    # the workers actually did verified work that the coordinator's own
    # trace cannot see (its local totals exclude remote costs)
    assert remote["verified_reads"] > 0
    assert result.totals()["verified_reads"] == 0


def test_segment_trees_carry_per_operator_stats():
    with fleet() as db:
        load_users(db)
        result = db.explain_analyze("SELECT * FROM users WHERE score >= 100")

    for segment in result.remote_segments():
        labels = []

        def walk(node):
            labels.append(node["label"])
            for child in node["children"]:
                walk(child)

        walk(segment["plan"])
        assert any("SeqScan" in label for label in labels)
        # the scan operator, not just the fragment, owns the reads
        scan_nodes = [
            node
            for node in _iter_nodes(segment["plan"])
            if "SeqScan" in node["label"]
        ]
        assert scan_nodes and scan_nodes[0]["verified_reads"] > 0
    # rendering shows the stitched worker subtrees and timings
    assert "[shard 0]" in result.text
    assert "remote totals:" in result.text
    assert "wire=" in result.text


def _iter_nodes(node):
    yield node
    for child in node["children"]:
        yield from _iter_nodes(child)


def test_untraced_execution_still_routes_and_labels_latency():
    with fleet() as db:
        load_users(db)
        result = db.execute("SELECT COUNT(*) FROM users")
        assert result.rows[0][0] == 40
        snap = db.obs.snapshot()
        # labeled per-shard latency series replaced the name-mangled
        # shard.<id>.request_seconds metrics
        assert 'shard.request_seconds{shard="0"}' in snap
        assert "shard.0.request_seconds" not in snap
        assert snap['shard.envelope_wire_seconds{shard="0"}']["count"] > 0


# ----------------------------------------------------------------------
# process transport: stitching across a real process boundary
# ----------------------------------------------------------------------
def test_process_transport_explain_shows_worker_operator_stats():
    with fleet(transport="process", request_timeout=30.0) as db:
        load_users(db)
        result = db.explain_analyze(
            "SELECT city, AVG(score) FROM users GROUP BY city"
        )
        segments = result.remote_segments()
        assert len(segments) == 2
        for segment in segments:
            scans = [
                node
                for node in _iter_nodes(segment["plan"])
                if "SeqScan" in node["label"]
            ]
            assert scans and scans[0]["verified_reads"] > 0
            assert segment["totals"]["verified_reads"] > 0
        assert result.remote_totals()["verified_reads"] > 0


# ----------------------------------------------------------------------
# metrics federation
# ----------------------------------------------------------------------
def test_federation_folds_labeled_worker_series():
    with fleet() as db:
        load_users(db)
        db.execute("SELECT COUNT(*) FROM users")
        folded = db.federate_metrics()
        assert folded > 0
        snap = db.obs.snapshot()
        for shard in ("0", "1"):
            key = f'memory.verified_reads{{shard="{shard}"}}'
            assert snap[key]["value"] > 0
        # second pull folds only the delta — no traffic, no counters
        first = snap['memory.verified_reads{shard="0"}']["value"]
        db.federate_metrics()
        assert (
            db.obs.snapshot()['memory.verified_reads{shard="0"}']["value"]
            == first
        )


def test_worker_metrics_off_federates_nothing():
    with fleet(worker_metrics=False, federate_metrics=False) as db:
        load_users(db, rows=10)
        db.execute("SELECT COUNT(*) FROM users")
        assert db.federate_metrics() == 0


def test_fleet_exposition_lints_clean():
    with fleet() as db:
        load_users(db)
        db.execute("SELECT city, COUNT(*) FROM users GROUP BY city")
        db.health()  # federates + health gauges
        text = render_prometheus(db.obs)
        assert lint_prometheus(text) == []
        assert 'veridb_shard_request_seconds_bucket{shard="0"' in text
        assert "veridb_health_worker_up" in text


# ----------------------------------------------------------------------
# health / alerts
# ----------------------------------------------------------------------
def test_health_clean_fleet_has_no_alerts():
    with fleet() as db:
        load_users(db, rows=10)
        report = db.health()
        assert report["healthy"]
        assert report["alerts"] == []
        assert set(report["shards"]) == {0, 1}
        assert all(s["up"] for s in report["shards"].values())
        assert report["slo"]["p99_target"] == 1.0


def test_killed_worker_raises_alert_and_restart_clears_it():
    with scoped_event_sink(JsonlEventSink()) as sink:
        with fleet(transport="process", request_timeout=5.0) as db:
            load_users(db, rows=10)
            assert db.health()["healthy"]
            # murder shard 1's process outright (no clean close)
            db.links[1]._process.terminate()
            db.links[1]._process.join(timeout=10.0)
            report = db.health()
            assert not report["healthy"]
            assert [(a["alert"], a["shard"]) for a in report["alerts"]] == [
                ("worker_down", 1)
            ]
            assert not report["shards"][1]["up"]
            db.restart_worker(1)
            recovered = db.health()
            assert recovered["healthy"]
            assert recovered["alerts"] == []
            # the restarted worker answers authenticated requests again
            assert db.router.call(1, "table_names", {}) == []
        events = [
            (e["type"], e["shard"])
            for e in sink.events
            if e["type"].startswith("alert")
        ]
        assert events == [("alert_raised", 1), ("alert_cleared", 1)]


def test_epoch_lag_alert_tracks_fleet_round():
    with fleet() as db:
        load_users(db, rows=10)
        db.verify_now()
        assert db.health()["healthy"]
        # a worker that missed the last close lags the coordinator
        db._fleet_round += 1
        report = db.health()
        alerts = {(a["alert"], a["shard"]) for a in report["alerts"]}
        assert ("epoch_lag", 0) in alerts and ("epoch_lag", 1) in alerts
        db._fleet_round -= 1
        assert db.health()["healthy"]


def test_background_poller_runs_and_stops():
    import time

    with scoped_event_sink(JsonlEventSink()):
        with fleet(health_interval=0.05) as db:
            load_users(db, rows=10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if counter_value(db.obs.snapshot(), "health.polls") >= 2:
                    break
                time.sleep(0.02)
            assert counter_value(db.obs.snapshot(), "health.polls") >= 2
        # close() stopped the poller
        assert db.monitor._thread is None


# ----------------------------------------------------------------------
# service surface
# ----------------------------------------------------------------------
def test_query_service_health_includes_fleet():
    from repro.service import QueryService

    with fleet() as db:
        load_users(db, rows=10)
        service = QueryService(db)
        try:
            report = service.health()
            assert report["healthy"]
            assert report["fleet"]["healthy"]
            assert set(report["fleet"]["shards"]) == {0, 1}
        finally:
            service.close()


def test_query_service_health_single_instance_backend():
    from repro.core.database import VeriDB
    from repro.service import QueryService

    service = QueryService(VeriDB(VeriDBConfig(key_seed=5)))
    try:
        report = service.health()
        assert report["healthy"]
        assert "fleet" not in report
    finally:
        service.close()
