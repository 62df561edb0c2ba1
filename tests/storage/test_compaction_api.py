"""Direct tests for the compaction policy API."""

import pytest

from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable


def make_table(**config_kwargs):
    schema = Schema(
        columns=[Column("pk", IntegerType()), Column("v", TextType())],
        primary_key="pk",
    )
    engine = StorageEngine(StorageConfig(page_size=1024, **config_kwargs))
    return VerifiableTable("t", schema, engine), engine


def test_compact_all_reclaims(monkeypatch):
    table, engine = make_table(compaction="deferred", compact_threshold=0.05)
    for pk in range(60):
        table.insert((pk, "x" * 50))
    for pk in range(0, 60, 2):
        table.delete(pk)
    assert any(p.fragmentation > 0.05 for p in table.heap.pages())
    moved = table._compaction.compact_all()
    assert moved > 0
    assert all(p.fragmentation <= 0.05 for p in table.heap.pages())
    assert table._compaction.stats.pages_compacted > 0
    engine.verify_now()
    # contents intact
    assert [r[0] for r in table.seq_scan()] == list(range(1, 60, 2))


def test_scan_hook_noop_for_eager_mode():
    table, engine = make_table(compaction="eager")
    for pk in range(30):
        table.insert((pk, "x" * 40))
    stats_before = table._compaction.stats.pages_compacted
    engine.verify_now()
    assert table._compaction.stats.pages_compacted == stats_before


def test_scan_hook_skips_busy_table():
    import threading

    table, engine = make_table(compaction="deferred", compact_threshold=0.01)
    for pk in range(40):
        table.insert((pk, "x" * 60))
    for pk in range(0, 40, 2):
        table.delete(pk)
    # hold the table lock from ANOTHER thread (the RLock is reentrant, so
    # holding it from this thread would not make the hook's try-acquire
    # fail)
    acquired = threading.Event()
    release = threading.Event()

    def holder():
        with table._lock:
            acquired.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=holder)
    thread.start()
    acquired.wait(timeout=30)
    try:
        engine.verify_now()
    finally:
        release.set()
        thread.join()
    assert table._compaction.stats.passes_skipped_busy > 0
    # the next unobstructed pass compacts
    engine.verify_now()
    assert table._compaction.stats.pages_compacted > 0


def test_none_mode_never_compacts():
    table, engine = make_table(compaction="none", compact_threshold=0.01)
    for pk in range(40):
        table.insert((pk, "x" * 60))
    for pk in range(0, 40, 2):
        table.delete(pk)
    engine.verify_now()
    assert table._compaction.stats.pages_compacted == 0
    assert any(p.fragmentation > 0.1 for p in table.heap.pages())


def test_run_threaded_propagates_errors():
    from repro.workloads.runner import run_threaded

    def worker(index):
        if index == 1:
            raise ValueError("boom")
        return 1

    with pytest.raises(ValueError):
        run_threaded(worker, 3)


@pytest.mark.parametrize("ops_per_step", [1, 2, 3, 5])
def test_triggered_scan_never_compacts_a_page_mid_mutation(ops_per_step):
    """The op-count trigger runs the verifier step — and this hook — on
    the operating thread, from inside ``Page.insert/write/delete``,
    where the re-entrant table lock cannot say "busy". Compacting the
    page there acted on a directory mirror that was one cell operation
    behind the cells (an honest ``VerificationFailure: cell … vanished``
    on delete); the hook must leave such a page for a later pass."""
    table, engine = make_table(compaction="deferred", compact_threshold=0.01)
    engine.enable_continuous_verification(ops_per_step)
    live = set()
    for pk in range(80):
        table.insert((pk, "x" * 50))
        live.add(pk)
    for round_ in range(4):
        for pk in sorted(live)[round_::3]:
            table.delete(pk)
            live.discard(pk)
        for pk in sorted(live)[::4]:
            table.update(pk, {"v": "y" * (30 + 10 * round_)})
        for pk in range(1000 * (round_ + 1), 1000 * (round_ + 1) + 15):
            table.insert((pk, "z" * 50))
            live.add(pk)
    assert table._compaction.stats.pages_compacted > 0
    assert table._compaction.stats.passes_skipped_busy > 0
    engine.verify_now()
    assert [r[0] for r in table.seq_scan()] == sorted(live)
    assert engine.verifier.stats.alarms == 0
