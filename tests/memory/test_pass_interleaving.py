"""Regression tests: full passes vs open incremental passes.

A manual/background ``run_pass`` used to ignore a trigger-driven pass
left mid-flight, scanning already-flipped pages a second time within
the same epoch and corrupting both digest generations — an honest run
then raised a false alarm. ``run_pass`` now drains the open pass first.
"""

import random

import pytest

from repro.crypto.prf import PRF
from repro.errors import VerificationFailure
from repro.memory.adversary import Adversary
from repro.memory.cells import make_addr
from repro.memory.rsws import RSWSGroup
from repro.memory.verified import VerifiedMemory
from repro.memory.verifier import Verifier


def make_vmem(pages=6, cells=8):
    vmem = VerifiedMemory(prf=PRF(b"r" * 32), rsws=RSWSGroup(n_partitions=3))
    for p in range(pages):
        vmem.register_page(p)
        for i in range(cells):
            vmem.alloc(make_addr(p, i * 64), f"c{p}-{i}".encode())
    return vmem


def test_run_pass_drains_open_incremental_pass():
    vmem = make_vmem()
    verifier = Verifier(vmem)
    assert verifier.step() is False  # a pass is now open, mid-flight
    verifier.run_pass()  # must not double-scan the stepped page
    assert verifier.stats.alarms == 0
    verifier.run_pass()
    assert verifier.stats.alarms == 0


def test_trigger_and_manual_passes_interleave_cleanly():
    vmem = make_vmem()
    verifier = Verifier(vmem)
    verifier.install_trigger(ops_per_step=3)
    for i in range(40):
        vmem.write(make_addr(i % 6, (i % 8) * 64), f"v{i}".encode())
        if i % 10 == 9:
            verifier.run_pass()  # interleave manual closes with the trigger
    verifier.remove_trigger()
    verifier.run_pass()
    assert verifier.stats.alarms == 0


def test_drained_pass_still_detects_tampering():
    """Draining must not eat detections: tamper, open a pass, run_pass."""
    vmem = make_vmem()
    verifier = Verifier(vmem)
    verifier.run_pass()
    Adversary(vmem.memory).corrupt(make_addr(2, 0), b"evil")
    assert verifier.step() is False  # pass opens (maybe past page 2 or not)
    with pytest.raises(VerificationFailure):
        # either the drained close or the fresh pass close must alarm
        verifier.run_pass()
        verifier.run_pass()


def test_continuous_verification_through_sql_load():
    """The end-to-end shape that originally exposed the bug."""
    from repro import VeriDB, VeriDBConfig

    db = VeriDB(VeriDBConfig(ops_per_page_scan=10, key_seed=5))
    db.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    for i in range(120):
        db.sql(f"INSERT INTO t VALUES ({i}, '{'x' * 100}')")
    db.verify_now()
    db.verify_now()
    assert db.storage.verifier.stats.alarms == 0


def test_triggered_scans_with_sql_deletes_raise_no_false_alarm():
    """``ops_per_page_scan`` + SQL DELETE on an honest run: the op hook
    fires inside ``Page.delete`` (data cell freed, slot not yet retired)
    and the triggered scan used to compact that very page mid-delete —
    ``VerificationFailure: cell … vanished`` at op 6,702 of this exact
    stream. Unit-level twin: ``tests/storage/test_compaction_api.py``."""
    from repro import VeriDB, VeriDBConfig
    from repro.workloads.micro import MicroWorkload

    db = VeriDB(VeriDBConfig(key_seed=1, ops_per_page_scan=100))
    client = db.connect()
    client.execute("CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
    workload = MicroWorkload(n_initial=2000, seed=0)
    for key, value in workload.initial_pairs():
        client.execute("INSERT INTO kv VALUES (?, ?)", params=(key, value))
    model = dict(MicroWorkload(n_initial=2000, seed=0).initial_pairs())
    for op in workload.operations(8000):
        if op.kind == "get":
            rows = client.execute(
                "SELECT v FROM kv WHERE k = ?", params=(op.key,)
            ).rows
            assert [r[0] for r in rows] == [model[op.key]]
        elif op.kind == "insert":
            client.execute("INSERT INTO kv VALUES (?, ?)", params=(op.key, op.value))
            model[op.key] = op.value
        elif op.kind == "update":
            client.execute(
                "UPDATE kv SET v = ? WHERE k = ?", params=(op.value, op.key)
            )
            model[op.key] = op.value
        else:
            client.execute("DELETE FROM kv WHERE k = ?", params=(op.key,))
            del model[op.key]
    db.verify_now()
    assert db.storage.verifier.stats.alarms == 0
    got = client.execute("SELECT k, v FROM kv").rows
    assert sorted(map(tuple, got)) == sorted(model.items())


@pytest.mark.parametrize("ops_per_page_scan", [1, 2, 3, 5])
@pytest.mark.parametrize("verify_metadata", [True, False])
def test_triggered_scans_never_run_inside_a_storage_read(
    verify_metadata, ops_per_page_scan
):
    """Figure 9's "incl. metadata" × Figure 10's knob on an honest run.

    With verified slot pointers a record read is two verified reads, and
    the trigger used to fire between them: the step's compaction moved
    the payloads the pointers had just named (``cell … vanished`` /
    ``key chain broken`` at step 161 of this stream for N = 2 and 5).
    For N = 1 and 3 a new page's header alloc fired the trigger before
    the heap listed the page (``heap has no page`` during the load).
    Hooks are now held across a storage-level read and fire after it.
    """
    from repro import VeriDB, VeriDBConfig
    from repro.storage.config import StorageConfig

    db = VeriDB(
        VeriDBConfig(
            key_seed=0,
            ops_per_page_scan=ops_per_page_scan,
            storage=StorageConfig(verify_metadata=verify_metadata),
        )
    )
    vmem = db.storage.vmem
    fired = []
    vmem.add_op_hook(lambda: fired.append(1))
    client = db.connect()
    client.execute("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
    model = {}
    for key in range(300):
        model[key] = "x" * 200
        client.execute("INSERT INTO kv VALUES (?, ?)", params=(key, model[key]))
    rng = random.Random(1)
    next_key = len(model)
    for _ in range(200):
        draw = rng.random()
        if draw < 0.3:
            key = rng.choice(sorted(model))
            client.execute("DELETE FROM kv WHERE k = ?", params=(key,))
            del model[key]
        elif draw < 0.5:
            model[next_key] = "y" * rng.randint(50, 300)
            client.execute(
                "INSERT INTO kv VALUES (?, ?)", params=(next_key, model[next_key])
            )
            next_key += 1
        elif draw < 0.8:
            key = rng.choice(sorted(model))
            rows = client.execute("SELECT v FROM kv WHERE k = ?", params=(key,)).rows
            assert [row[0] for row in rows] == [model[key]]
        else:
            rows = client.execute("SELECT COUNT(*) FROM kv").rows
            assert rows[0][0] == len(model)
    db.verify_now()
    assert db.storage.verifier.stats.alarms == 0
    got = client.execute("SELECT k, v FROM kv").rows
    assert sorted(map(tuple, got)) == sorted(model.items())
    stats = vmem.stats
    assert len(fired) == (
        stats.verified_reads + stats.verified_writes + stats.allocs + stats.frees
    )
