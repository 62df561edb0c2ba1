"""Unit tests for the exporters (repro.obs.export)."""

import json
import threading

from repro.core.incident import IncidentLog
from repro.faults.plane import ChaosPlane
from repro.faults.schedule import ChaosSchedule
from repro.obs import (
    NULL_EVENT_SINK,
    JsonlEventSink,
    MetricsRegistry,
    NullRegistry,
    default_event_sink,
    render_prometheus,
    scoped_event_sink,
    scoped_registry,
    set_default_event_sink,
    write_prometheus_snapshot,
)
from repro.obs.metrics import quantile


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def test_render_counter_and_gauge():
    reg = MetricsRegistry()
    reg.counter("portal.queries").inc(3)
    reg.gauge("sgx.epc_pages").set(17)
    text = render_prometheus(reg)
    assert "# TYPE veridb_portal_queries counter" in text
    assert "veridb_portal_queries 3" in text
    assert "# TYPE veridb_sgx_epc_pages gauge" in text
    assert "veridb_sgx_epc_pages 17" in text


def test_render_name_sanitization():
    reg = MetricsRegistry()
    reg.counter("sql.op.HashJoin.self-time").inc()
    text = render_prometheus(reg)
    assert "veridb_sql_op_HashJoin_self_time 1" in text


def test_render_histogram_cumulative_buckets():
    reg = MetricsRegistry()
    hist = reg.histogram("memory.batch_cells")
    hist.observe(0)  # zero bucket (key None)
    hist.observe(1.5)  # exponent 0 -> upper bound 2
    hist.observe(3.0)  # exponent 1 -> upper bound 4
    hist.observe(3.5)  # exponent 1
    text = render_prometheus(reg)
    # cumulative: zero bucket folds into the smallest finite bound
    assert 'veridb_memory_batch_cells_bucket{le="2"} 2' in text
    assert 'veridb_memory_batch_cells_bucket{le="4"} 4' in text
    assert 'veridb_memory_batch_cells_bucket{le="+Inf"} 4' in text
    assert "veridb_memory_batch_cells_count 4" in text
    assert "veridb_memory_batch_cells_sum 8" in text


def test_render_null_registry_is_empty():
    assert render_prometheus(NullRegistry()) == ""


def test_write_prometheus_snapshot(tmp_path):
    reg = MetricsRegistry()
    reg.counter("a.b").inc()
    path = write_prometheus_snapshot(reg, str(tmp_path / "metrics.prom"))
    content = open(path).read()
    assert content.endswith("\n")
    assert "veridb_a_b 1" in content


def test_quantile_from_snapshot():
    reg = MetricsRegistry()
    hist = reg.histogram("x.y")
    for v in (1.0, 1.5, 3.0, 100.0):
        hist.observe(v)
    snap = reg.snapshot()["x.y"]
    assert quantile(snap, 0.5) <= 4.0
    assert quantile(snap, 1.0) == 100.0
    assert quantile({"count": 0}, 0.5) == 0.0


# ----------------------------------------------------------------------
# event sinks
# ----------------------------------------------------------------------
def test_null_sink_is_default_and_drops():
    assert default_event_sink() is NULL_EVENT_SINK
    NULL_EVENT_SINK.emit({"type": "whatever"})
    assert NULL_EVENT_SINK.events == ()
    assert not NULL_EVENT_SINK.enabled


def test_jsonl_sink_in_memory_stamps_seq_and_ts():
    sink = JsonlEventSink(registry=MetricsRegistry())
    sink.emit({"type": "a"})
    sink.emit({"type": "b"})
    events = sink.events
    assert [e["type"] for e in events] == ["a", "b"]
    assert [e["seq"] for e in events] == [1, 2]
    assert all("ts" in e for e in events)


def test_jsonl_sink_counts_emissions():
    reg = MetricsRegistry()
    sink = JsonlEventSink(registry=reg)
    sink.emit({"type": "x"})
    sink.emit({"type": "x"})
    assert reg.counter("obs.events_emitted").value == 2


def test_jsonl_sink_file_mode(tmp_path):
    path = tmp_path / "events.jsonl"
    with JsonlEventSink(path=str(path), registry=MetricsRegistry()) as sink:
        sink.emit({"type": "incident_open", "name": "x"})
        sink.emit({"type": "incident_resolve", "name": "x"})
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["type"] == "incident_open"
    assert parsed[1]["seq"] == 2


def test_scoped_event_sink_installs_and_restores():
    with scoped_event_sink() as sink:
        assert default_event_sink() is sink
        default_event_sink().emit({"type": "inner"})
    assert default_event_sink() is NULL_EVENT_SINK
    assert sink.events_of("inner")


def test_scoped_event_sink_thread_isolated():
    barrier = threading.Barrier(2)
    failures = []

    def worker(name):
        try:
            with scoped_event_sink() as sink:
                barrier.wait()
                default_event_sink().emit({"type": name})
                barrier.wait()
                types = [e["type"] for e in sink.events]
                if types != [name]:
                    failures.append(f"{name} saw {types}")
        except Exception as exc:
            failures.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures, failures


def test_set_default_event_sink_process_wide():
    sink = JsonlEventSink(registry=MetricsRegistry())
    previous = set_default_event_sink(sink)
    try:
        assert default_event_sink() is sink
    finally:
        set_default_event_sink(NULL_EVENT_SINK)
    assert previous is sink


# ----------------------------------------------------------------------
# component event emission
# ----------------------------------------------------------------------
def test_incident_log_emits_events():
    with scoped_registry(MetricsRegistry()):
        log = IncidentLog()
        with scoped_event_sink() as sink:
            log.open("verifier-down", "background verifier crashed")
            log.resolve("verifier-down")
    opened = sink.events_of("incident_open")
    resolved = sink.events_of("incident_resolve")
    assert opened[0]["key"] == "verifier-down"
    assert "crashed" in opened[0]["message"]
    assert resolved[0]["key"] == "verifier-down"


def test_fault_plane_emits_events():
    plane = ChaosPlane(
        ChaosSchedule(seed=3, rates={"layer.site": 1.0}, limit_per_site=1),
        registry=MetricsRegistry(),
    )
    with scoped_event_sink() as sink:
        try:
            plane.check("layer.site")
        except Exception:
            pass
        plane.check("layer.site")  # limit reached: no further firing
    events = sink.events_of("fault_injected")
    assert len(events) == 1
    assert events[0]["site"] == "layer.site"
    assert events[0]["action"] == "raise"
    assert events[0]["ordinal"] >= 1


def test_verifier_emits_epoch_close_events():
    from repro.storage.config import StorageConfig
    from repro.storage.engine import StorageEngine
    from repro.workloads.micro import KVTable

    with scoped_registry(MetricsRegistry()):
        engine = StorageEngine(StorageConfig())
        kv = KVTable(engine)
        for i in range(5):
            kv.insert(i, f"v{i}")
        with scoped_event_sink() as sink:
            engine.verify_now()
    events = sink.events_of("epoch_close")
    assert len(events) == 1
    assert events[0]["alarm"] is False
    assert events[0]["partitions"] == []
    assert events[0]["pass_number"] == 1
