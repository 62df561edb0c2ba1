"""Fleet observability building blocks (unit level).

Histogram merge-by-bucket-addition, quantile edge cases, registry
delta/fold round trips, the rolling-window SLO tracker, the health
monitor's raise/clear state machine, and the Prometheus renderer +
linter over labeled series.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs.export import (
    JsonlEventSink,
    render_prometheus,
)
from repro.obs.fleet import (
    HealthMonitor,
    SloTracker,
    fold_metric_delta,
    snapshot_delta,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    quantile,
    series_key,
    split_series_key,
)
from repro.obs.promlint import lint_prometheus, parse_prometheus


# ----------------------------------------------------------------------
# series keys
# ----------------------------------------------------------------------
def test_series_key_round_trip():
    key = series_key("shard.request_seconds", {"shard": "3", "op": "stmt"})
    assert key == 'shard.request_seconds{op="stmt",shard="3"}'
    base, labels = split_series_key(key)
    assert base == "shard.request_seconds"
    assert labels == {"shard": "3", "op": "stmt"}
    assert split_series_key("plain.name") == ("plain.name", {})


LABEL_NAMES = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,8}", fullmatch=True)


@settings(max_examples=200)
@example(labels={"tenant": 'a,b="c"\\d\ne'})
@given(labels=st.dictionaries(LABEL_NAMES, st.text(max_size=12), max_size=4))
def test_split_series_key_inverts_series_key(labels):
    key = series_key("service.tenant.queries", labels)
    assert split_series_key(key) == ("service.tenant.queries", labels)


def test_federated_label_values_survive_the_fold():
    worker = MetricsRegistry()
    worker.counter("service.tenant.queries", labels={"tenant": "acme,inc"}).inc(3)
    coordinator = MetricsRegistry()
    fold_metric_delta(
        coordinator, snapshot_delta(worker.snapshot(), {}), {"shard": "0"}
    )
    text = render_prometheus(coordinator)
    assert 'veridb_service_tenant_queries{shard="0",tenant="acme,inc"} 3' in text


def test_labeled_series_are_distinct_instruments():
    reg = MetricsRegistry()
    a = reg.counter("shard.requests", labels={"shard": "0"})
    b = reg.counter("shard.requests", labels={"shard": "1"})
    a.inc(3)
    b.inc(5)
    snap = reg.snapshot()
    assert snap['shard.requests{shard="0"}']["value"] == 3
    assert snap['shard.requests{shard="1"}']["value"] == 5
    assert snap['shard.requests{shard="0"}']["labels"] == {"shard": "0"}


def test_cross_type_conflict_detected_across_label_sets():
    reg = MetricsRegistry()
    reg.counter("dup.metric", labels={"shard": "0"})
    with pytest.raises(ValueError):
        reg.gauge("dup.metric", labels={"shard": "1"})


# ----------------------------------------------------------------------
# log2-histogram merge
# ----------------------------------------------------------------------
def test_histogram_merge_adds_buckets():
    a = Histogram("h")
    b = Histogram("h")
    for value in (0.5, 3.0, 100.0):
        a.observe(value)
    for value in (3.5, 0.25):
        b.observe(value)
    a.merge_snapshot(b.snapshot())
    snap = a.snapshot()
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(107.25)
    assert snap["min"] == 0.25
    assert snap["max"] == 100.0
    # 3.0 and 3.5 share the exponent-1 bucket (2, 4]
    assert snap["buckets"][1] == 2


def test_histogram_merge_empty_snapshot_is_noop():
    h = Histogram("h")
    h.observe(1.0)
    before = h.snapshot()
    h.merge_snapshot(Histogram("other").snapshot())
    assert h.snapshot() == before


# ----------------------------------------------------------------------
# the one quantile
# ----------------------------------------------------------------------
OBSERVATIONS = st.lists(
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False), max_size=40
)
QS = st.floats(min_value=0.0, max_value=1.0)


def _fed(values):
    h = Histogram("h")
    for value in values:
        h.observe(value)
    return h


@settings(max_examples=200)
@example(values=[], q=0.99)
@example(values=[3.0], q=0.5)
@given(values=OBSERVATIONS, q=QS)
def test_quantile_brackets_the_true_quantile(values, q):
    result = quantile(_fed(values).snapshot(), q)
    if not values:
        assert result == 0.0
        return
    ordered = sorted(values)
    true_q = ordered[max(1, math.ceil(q * len(values))) - 1]
    assert true_q <= result <= min(2 * true_q, ordered[-1])


@settings(max_examples=200)
@example(fast=[0.01] * 99, slow=[10.0], q=0.995)
@given(fast=OBSERVATIONS, slow=OBSERVATIONS, q=QS)
def test_quantile_of_merged_snapshots_equals_one_histogram(fast, slow, q):
    merged = Histogram("h")
    merged.merge_snapshot(_fed(fast).snapshot())
    merged.merge_snapshot(_fed(slow).snapshot())
    assert quantile(merged.snapshot(), q) == quantile(_fed(fast + slow).snapshot(), q)


def test_quantile_empty_histogram_is_zero():
    assert quantile(Histogram("h").snapshot(), 0.99) == 0.0


def test_quantile_single_bucket_bounded_by_max():
    h = Histogram("h")
    h.observe(3.0)  # exponent 1, upper bound 4.0
    snap = h.snapshot()
    assert quantile(snap, 0.5) == 3.0  # clamped to max
    assert quantile(snap, 0.99) == 3.0


def test_quantile_merged_across_shards():
    fast = Histogram("h")
    slow = Histogram("h")
    for _ in range(99):
        fast.observe(0.01)
    slow.observe(10.0)
    fast.merge_snapshot(slow.snapshot())
    merged = fast.snapshot()
    assert merged["count"] == 100
    # the p50 lives in the fast bucket, the p99+ in the slow shard's
    assert quantile(merged, 0.5) <= 0.02
    assert quantile(merged, 0.995) == 10.0


# ----------------------------------------------------------------------
# registry deltas and the coordinator fold
# ----------------------------------------------------------------------
def _worker_registry():
    reg = MetricsRegistry()
    reg.counter("memory.verified_reads").inc(7)
    reg.gauge("sql.plan_cache_size").set(4)
    h = reg.histogram("sql.execute_seconds")
    h.observe(0.25)
    h.observe(0.5)
    return reg


def test_snapshot_delta_counters_and_histograms():
    reg = _worker_registry()
    baseline = reg.snapshot()
    reg.counter("memory.verified_reads").inc(3)
    reg.histogram("sql.execute_seconds").observe(1.5)
    delta = snapshot_delta(reg.snapshot(), baseline)
    assert delta["memory.verified_reads"]["value"] == 3
    assert delta["sql.execute_seconds"]["count"] == 1
    assert delta["sql.execute_seconds"]["sum"] == pytest.approx(1.5)
    # gauges always report their level
    assert delta["sql.plan_cache_size"]["value"] == 4


def test_snapshot_delta_drops_unchanged_series():
    reg = _worker_registry()
    baseline = reg.snapshot()
    delta = snapshot_delta(reg.snapshot(), baseline)
    assert "memory.verified_reads" not in delta
    assert "sql.execute_seconds" not in delta


def test_fold_delta_applies_shard_label():
    worker = _worker_registry()
    coordinator = MetricsRegistry()
    folded = fold_metric_delta(
        coordinator, snapshot_delta(worker.snapshot(), {}), {"shard": "2"}
    )
    assert folded == 3
    snap = coordinator.snapshot()
    assert snap['memory.verified_reads{shard="2"}']["value"] == 7
    assert snap['sql.execute_seconds{shard="2"}']["count"] == 2
    # folding a second identical delta accumulates
    fold_metric_delta(
        coordinator, snapshot_delta(worker.snapshot(), {}), {"shard": "2"}
    )
    assert coordinator.snapshot()['memory.verified_reads{shard="2"}']["value"] == 14


# ----------------------------------------------------------------------
# SLO tracker
# ----------------------------------------------------------------------
def _registry_with_requests(latencies, errors=0):
    reg = MetricsRegistry()
    h = reg.histogram("shard.request_seconds", labels={"shard": "0"})
    for value in latencies:
        h.observe(value)
    if errors:
        reg.counter("shard.reply_lost").inc(errors)
    return reg


def test_slo_tracker_windowed_p99():
    tracker = SloTracker(
        window_seconds=60.0, p99_target=1.0, error_rate_target=0.01
    )
    reg = _registry_with_requests([])
    tracker.sample(reg.snapshot(), now=0.0)
    h = reg.histogram("shard.request_seconds", labels={"shard": "0"})
    for _ in range(200):
        h.observe(0.01)
    view = tracker.sample(reg.snapshot(), now=10.0)
    assert view["requests"] == 200
    assert view["p99_seconds"] <= 0.02
    assert view["budget_burn"] == 0.0


def test_slo_tracker_error_budget_burn():
    tracker = SloTracker(
        window_seconds=60.0, p99_target=1.0, error_rate_target=0.01
    )
    reg = _registry_with_requests([0.01] * 90, errors=0)
    tracker.sample(reg.snapshot(), now=0.0)
    reg.counter("shard.reply_lost").inc(10)
    h = reg.histogram("shard.request_seconds", labels={"shard": "0"})
    for _ in range(90):
        h.observe(0.01)
    view = tracker.sample(reg.snapshot(), now=5.0)
    assert view["errors"] == 10
    assert view["error_rate"] == pytest.approx(0.1)
    assert view["budget_burn"] == pytest.approx(10.0)


def test_slo_tracker_window_expires_old_samples():
    tracker = SloTracker(
        window_seconds=10.0, p99_target=1.0, error_rate_target=0.01
    )
    reg = _registry_with_requests([5.0])  # old slow request
    tracker.sample(reg.snapshot(), now=0.0)
    tracker.sample(reg.snapshot(), now=11.0)  # becomes the new base
    view = tracker.sample(reg.snapshot(), now=12.0)
    assert view["requests"] == 0
    assert view["p99_seconds"] == 0.0


# ----------------------------------------------------------------------
# health monitor state machine
# ----------------------------------------------------------------------
def _monitor(poll, sink, registry=None):
    return HealthMonitor(
        poll=poll,
        shard_ids=[0],
        coordinator_round=lambda: 0,
        registry=registry or MetricsRegistry(),
        sink=sink,
    )


def _healthy_report(shard_id):
    return {
        "shard": shard_id,
        "fleet_round": 0,
        "epoch": 0,
        "wal_pending": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "epc": {"capacity": 100, "resident": 10, "swapped": 0},
    }


def test_monitor_raises_and_clears_worker_down():
    sink = JsonlEventSink()
    state = {"up": True}

    def poll(shard_id):
        if not state["up"]:
            raise RuntimeError("pipe broken")
        return _healthy_report(shard_id)

    monitor = _monitor(poll, sink)
    assert monitor.check()["healthy"]
    state["up"] = False
    report = monitor.check()
    assert not report["healthy"]
    assert report["alerts"][0]["alert"] == "worker_down"
    # a second failing poll does not re-raise the same alert
    monitor.check()
    state["up"] = True
    assert monitor.check()["healthy"]
    types = [e["type"] for e in sink.events if e["type"].startswith("alert")]
    assert types == ["alert_raised", "alert_cleared"]


def test_monitor_alerts_on_a_failing_on_poll_until_a_clean_one():
    sink = JsonlEventSink()
    state = {"fail": True}

    def on_poll():
        if state["fail"]:
            raise RuntimeError("federation broke")

    monitor = _monitor(lambda sid: _healthy_report(sid), sink)
    monitor.on_poll = on_poll
    report = monitor.check()
    assert not report["healthy"]
    assert report["alerts"] == [
        {
            "alert": "poll_failed",
            "shard": None,
            "detail": "on_poll: RuntimeError: federation broke",
        }
    ]
    state["fail"] = False
    assert monitor.check()["healthy"]
    types = [(e["type"], e["alert"]) for e in sink.events if e["type"].startswith("alert")]
    assert types == [("alert_raised", "poll_failed"), ("alert_cleared", "poll_failed")]


def test_monitor_background_check_failure_is_an_alert(poll_until):
    sink = JsonlEventSink()
    state = {"fail": True}

    def coordinator_round():
        if state["fail"]:
            raise RuntimeError("coordinator gone")
        return 0

    monitor = _monitor(lambda sid: _healthy_report(sid), sink)
    monitor.coordinator_round = coordinator_round
    monitor.start(0.005)
    try:
        assert poll_until(lambda: monitor.active_alerts())
        assert monitor.active_alerts() == [
            {
                "alert": "poll_failed",
                "shard": None,
                "detail": "check: RuntimeError: coordinator gone",
            }
        ]
        state["fail"] = False
        assert poll_until(lambda: not monitor.active_alerts())
    finally:
        monitor.stop()
    types = [(e["type"], e["alert"]) for e in sink.events if e["type"].startswith("alert")]
    assert types == [("alert_raised", "poll_failed"), ("alert_cleared", "poll_failed")]


def test_monitor_threshold_rules():
    sink = JsonlEventSink()
    report = _healthy_report(0)
    monitor = _monitor(lambda _sid: report, sink)
    report["wal_pending"] = 5000  # over the default 1024
    report["epc"] = {"capacity": 100, "resident": 95, "swapped": 5}
    alerts = {a["alert"] for a in monitor.check()["alerts"]}
    assert alerts == {"wal_lag", "epc_pressure"}
    report["wal_pending"] = 0
    report["epc"] = {"capacity": 100, "resident": 10, "swapped": 0}
    assert monitor.check()["healthy"]


def test_monitor_gauges_exported():
    reg = MetricsRegistry()
    monitor = _monitor(lambda sid: _healthy_report(sid), JsonlEventSink(), reg)
    monitor.check()
    snap = reg.snapshot()
    assert snap['health.worker_up{shard="0"}']["value"] == 1
    assert snap["health.alerts_active"]["value"] == 0
    assert snap["health.polls"]["value"] == 1


# ----------------------------------------------------------------------
# renderer + linter over labeled series
# ----------------------------------------------------------------------
def _fleet_like_registry():
    reg = MetricsRegistry()
    reg.counter("portal.queries").inc(12)
    for shard in ("0", "1"):
        reg.counter(
            "memory.verified_reads", labels={"shard": shard}
        ).inc(30)
        h = reg.histogram("shard.request_seconds", labels={"shard": shard})
        for value in (0.001, 0.01, 0.1):
            h.observe(value)
    return reg


def test_render_prometheus_labeled_families_lint_clean():
    text = render_prometheus(_fleet_like_registry())
    assert lint_prometheus(text) == []
    assert '# TYPE veridb_shard_request_seconds histogram' in text
    assert 'veridb_memory_verified_reads{shard="0"} 30' in text
    assert 'veridb_shard_request_seconds_bucket{shard="1",le="+Inf"} 3' in text
    # one TYPE header per family even with two labeled series
    assert text.count("# TYPE veridb_shard_request_seconds") == 1


def test_parse_prometheus_reads_back_samples():
    parsed = parse_prometheus(render_prometheus(_fleet_like_registry()))
    assert not parsed["errors"]
    names = {name for name, _labels, _value, _line in parsed["samples"]}
    assert "veridb_portal_queries" in names
    assert "veridb_shard_request_seconds_bucket" in names


def test_lint_flags_missing_type():
    assert any(
        "no TYPE" in problem
        for problem in lint_prometheus("orphan_metric 12\n")
    )


def test_lint_flags_non_monotone_buckets():
    bad = (
        "# HELP m h\n# TYPE m histogram\n"
        'm_bucket{le="1"} 5\nm_bucket{le="2"} 3\n'
        'm_bucket{le="+Inf"} 5\nm_sum 1\nm_count 5\n'
    )
    assert any("decrease" in problem for problem in lint_prometheus(bad))


def test_lint_flags_inf_count_mismatch_and_duplicates():
    bad = (
        "# HELP m h\n# TYPE m histogram\n"
        'm_bucket{le="+Inf"} 4\nm_sum 1\nm_count 5\n'
    )
    assert any("_count" in problem for problem in lint_prometheus(bad))
    dup = "# HELP c h\n# TYPE c counter\nc 1\nc 2\n"
    assert any("duplicate" in problem for problem in lint_prometheus(dup))
