"""Unit tests for the observability layer (repro.obs)."""

import threading

import pytest

from repro.obs import (
    KNOWN_LAYERS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    default_registry,
    layer_breakdown,
    scoped_registry,
    set_default_registry,
)


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
def test_counter_increments():
    reg = MetricsRegistry()
    ctr = reg.counter("portal.queries")
    ctr.inc()
    ctr.inc(4)
    assert ctr.value == 5
    assert ctr.snapshot() == {"type": "counter", "value": 5}


def test_counter_is_shared_by_name():
    reg = MetricsRegistry()
    reg.counter("x").inc()
    reg.counter("x").inc()
    assert reg.counter("x").value == 2


def test_counter_thread_safety():
    reg = MetricsRegistry()
    ctr = reg.counter("hammer")

    def work():
        for _ in range(10_000):
            ctr.inc()

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert ctr.value == 80_000


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("verifier.background_alive")
    g.set(3)
    g.inc()
    g.dec(2)
    assert g.value == 2
    assert g.snapshot()["type"] == "gauge"


def test_gauge_fn_evaluated_at_snapshot():
    reg = MetricsRegistry()
    state = {"n": 0}
    reg.gauge_fn("portal.qid_ledger_size", lambda: state["n"])
    state["n"] = 17
    assert reg.snapshot()["portal.qid_ledger_size"]["value"] == 17


def test_histogram_statistics():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    for v in (1.0, 2.0, 4.0, 8.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == 15.0
    assert snap["min"] == 1.0
    assert snap["max"] == 8.0
    assert snap["mean"] == pytest.approx(3.75)


def test_histogram_zero_and_negative_observations():
    reg = MetricsRegistry()
    h = reg.histogram("edge")
    h.observe(0.0)
    h.observe(-5.0)  # clamped to zero, never raises
    snap = h.snapshot()
    assert snap["count"] == 2
    assert snap["min"] == 0.0


def test_histogram_percentile_is_monotone():
    reg = MetricsRegistry()
    h = reg.histogram("p")
    for v in range(1, 101):
        h.observe(float(v))
    p50, p99 = h.percentile(0.5), h.percentile(0.99)
    assert 0 < p50 <= p99
    # log2 buckets: estimate within one power of two of the true value
    assert p99 <= 2 * 100


# ----------------------------------------------------------------------
# registry plumbing
# ----------------------------------------------------------------------
def test_snapshot_is_sorted_and_typed():
    reg = MetricsRegistry()
    reg.counter("b").inc()
    reg.gauge("a").set(1)
    reg.histogram("c").observe(2)
    snap = reg.snapshot()
    assert list(snap) == sorted(snap)
    assert {d["type"] for d in snap.values()} == {
        "counter",
        "gauge",
        "histogram",
    }


def test_reset_clears_values_but_keeps_bindings():
    reg = MetricsRegistry()
    ctr = reg.counter("n")
    ctr.inc(5)
    reg.reset()
    assert ctr.value == 0
    ctr.inc()  # the pre-reset handle still feeds the registry
    assert reg.snapshot()["n"]["value"] == 1


def test_duplicate_name_different_type_rejected():
    reg = MetricsRegistry()
    reg.counter("dup")
    with pytest.raises(Exception):
        reg.gauge("dup")


def test_layer_breakdown_groups_by_first_segment():
    reg = MetricsRegistry()
    reg.counter("portal.queries").inc()
    reg.counter("sgx.ecalls").inc()
    reg.counter("custom.thing").inc()
    grouped = layer_breakdown(reg.snapshot())
    assert "portal.queries" in grouped["portal"]
    assert "sgx.ecalls" in grouped["sgx"]
    assert "custom.thing" in grouped["custom"]
    assert set(KNOWN_LAYERS) == {
        "service",
        "shard",
        "health",
        "portal",
        "verifier",
        "memory",
        "storage",
        "sql",
        "sgx",
        "faults",
        "incidents",
        "wal",
        "recovery",
        "obs",
    }


# ----------------------------------------------------------------------
# null registry / default registry
# ----------------------------------------------------------------------
def test_null_registry_is_inert():
    null = NullRegistry()
    assert not null.enabled
    null.counter("x").inc()
    null.gauge("y").set(5)
    null.histogram("z").observe(1.0)
    null.gauge_fn("g", lambda: 1)
    assert null.snapshot() == {}


def test_null_instruments_are_shared_singletons():
    # the disabled path allocates nothing per call site
    assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")


def test_default_registry_is_null_unless_installed():
    assert default_registry().enabled is False


def test_scoped_registry_installs_and_restores():
    before = default_registry()
    with scoped_registry() as reg:
        assert default_registry() is reg
        assert reg.enabled
    assert default_registry() is before


def test_scoped_registry_accepts_existing_registry():
    mine = MetricsRegistry()
    with scoped_registry(mine) as reg:
        assert reg is mine


def test_set_default_registry_returns_previous():
    mine = MetricsRegistry()
    previous = set_default_registry(mine)
    try:
        assert default_registry() is mine
    finally:
        set_default_registry(previous)
    assert default_registry() is previous
