"""Concurrency stress tests for the storage layer.

Mutations serialize on the table lock; point reads are lock-free with
bounded retry (see repro.storage.locking). These tests hammer a table
from many threads and assert: no crashes, no false alarms, and a final
state that matches the applied operations.
"""

import random
import sys
import threading


from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable
from repro.workloads.runner import run_threaded


def make_table(**config_kwargs):
    schema = Schema(
        columns=[
            Column("pk", IntegerType()),
            Column("grp", IntegerType(), nullable=False),
            Column("note", TextType()),
        ],
        primary_key="pk",
        chain_columns=("grp",),
    )
    engine = StorageEngine(StorageConfig(**config_kwargs))
    return VerifiableTable("t", schema, engine), engine


def test_concurrent_readers_while_writing():
    """Lock-free gets stay correct under concurrent chain churn."""
    table, engine = make_table()
    for pk in range(0, 400, 2):  # even keys present
        table.insert((pk, pk % 7, "init"))
    stop = threading.Event()
    writer_errors = []

    def writer():
        rng = random.Random(1)
        try:
            for i in range(300):
                odd = rng.randrange(1, 400, 2)
                if table.indexes[0].search(odd) is None:
                    table.insert((odd, odd % 7, "w"))
                else:
                    table.delete(odd)
        except BaseException as exc:
            writer_errors.append(exc)
        finally:
            stop.set()

    def reader(index):
        rng = random.Random(100 + index)
        reads = 0
        while not stop.is_set():
            pk = rng.randrange(0, 400)
            row, proof = table.get(pk)
            if pk % 2 == 0:  # even keys are immutable in this test
                assert row == (pk, pk % 7, "init")
            reads += 1
        return reads

    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    _, total_reads = run_threaded(reader, 3)
    writer_thread.join()
    assert not writer_errors
    assert total_reads > 0
    engine.verify_now()  # no integrity damage from the concurrency


def test_lock_free_gets_during_bulk_splices():
    """A get racing an ``insert_many`` sees each row absent (with a valid
    absence proof) or whole, never an alarm, while a batch's runs share
    predecessors and their nKeys change mid-splice."""
    table, engine = make_table()
    table.insert_many([(pk, pk % 7, "init") for pk in range(0, 600, 2)])
    odd = list(range(1, 600, 2))
    random.Random(2).shuffle(odd)
    stop = threading.Event()
    writer_errors = []

    def writer():
        try:
            for start in range(0, len(odd), 25):
                table.insert_many(
                    [(pk, pk % 7, "bulk") for pk in odd[start : start + 25]]
                )
        except BaseException as exc:
            writer_errors.append(exc)
        finally:
            stop.set()

    def reader(index):
        rng = random.Random(200 + index)
        reads = 0
        while not stop.is_set():
            pk = rng.randrange(0, 600)
            row, proof = table.get(pk)
            expected = (pk, pk % 7, "init" if pk % 2 == 0 else "bulk")
            assert row == expected if pk % 2 == 0 else row in (None, expected)
            reads += 1
        return reads

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        _, total_reads = run_threaded(reader, 3)
        writer_thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not writer_thread.is_alive() and not writer_errors
    assert total_reads > 0
    assert table.seq_scan() == [
        (pk, pk % 7, "init" if pk % 2 == 0 else "bulk") for pk in range(600)
    ]
    engine.verify_now()


def test_concurrent_mutators_distinct_keyspaces():
    table, engine = make_table()

    def worker(index):
        base = index * 10_000
        for i in range(150):
            table.insert((base + i, i % 5, f"w{index}"))
        for i in range(0, 150, 3):
            table.delete(base + i)
        for i in range(1, 150, 3):
            table.update(base + i, {"note": "updated"})
        return 1

    run_threaded(worker, 4)
    assert table.row_count == 4 * 100
    engine.verify_now()
    # chains are intact end to end
    rows = table.seq_scan()
    assert len(rows) == 400
    for index in range(4):
        updated = [
            r
            for r in rows
            if index * 10_000 <= r[0] < index * 10_000 + 150
            and r[2] == "updated"
        ]
        assert len(updated) == 50


def test_concurrent_mutations_same_keyspace():
    """Interleaved insert/delete/update on overlapping keys stays sane."""
    table, engine = make_table()
    for pk in range(100):
        table.insert((pk, pk % 3, "base"))
    counter_lock = threading.Lock()
    net = [0]

    def worker(index):
        rng = random.Random(index)
        local = 0
        for _ in range(120):
            pk = rng.randrange(100, 160)
            action = rng.randrange(3)
            if action == 0:
                try:
                    table.insert((pk, pk % 3, "x"))
                    local += 1
                except Exception:
                    pass  # duplicate: another thread won
            elif action == 1:
                if table.delete(pk):
                    local -= 1
            else:
                table.update(pk, {"note": "y"})
        with counter_lock:
            net[0] += local
        return 1

    run_threaded(worker, 4)
    assert table.row_count == 100 + net[0]
    assert len(table.seq_scan()) == table.row_count
    engine.verify_now()


def test_concurrent_reads_with_background_verifier():
    table, engine = make_table()
    for pk in range(200):
        table.insert((pk, pk % 5, "v"))
    engine.verifier.start_background()

    def worker(index):
        rng = random.Random(index)
        for _ in range(200):
            pk = rng.randrange(250)
            row, _ = table.get(pk)
            assert (row is not None) == (pk < 200)
        return 1

    run_threaded(worker, 4)
    engine.verifier.stop_background()  # re-raises alarms: must be clean


def test_concurrent_scans_and_gets():
    table, engine = make_table()
    for pk in range(150):
        table.insert((pk, pk % 4, "v"))

    def worker(index):
        rng = random.Random(index)
        for _ in range(30):
            if rng.random() < 0.5:
                rows = table.scan(lo=rng.randrange(100), hi=149)
                assert rows == sorted(rows)
            else:
                table.get(rng.randrange(150))
        return 1

    run_threaded(worker, 4)
    engine.verify_now()


def test_parallel_verifier_during_workload():
    table, engine = make_table()
    for pk in range(300):
        table.insert((pk, pk % 5, "v"))
    done = threading.Event()

    def churn():
        for i in range(300, 450):
            table.insert((i, i % 5, "late"))
        done.set()

    thread = threading.Thread(target=churn)
    thread.start()
    while not done.is_set():
        engine.verifier.run_pass()
    thread.join()
    engine.verifier.run_pass()
    assert table.row_count == 450
