"""Bulk load across a fleet: ``ShardedDatabase.load_rows`` splices each
chunk as one ``insert_many`` request per owner shard, answers exactly as
a single enclave loaded the same rows, and keeps primary keys unique
fleet-wide whatever the shard key."""

import random

import pytest

from repro.core.config import ShardConfig, VeriDBConfig
from repro.core.database import VeriDB
from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry
from repro.shard import ShardedDatabase
from repro.storage.table_store import row_chunks
from tests.conftest import chunk_rows
from tests.shard.test_sharded_differential import _DDL, ShardFuzzer, _canon


def fleet(shard_count, **kwargs):
    config = ShardConfig(
        shard_count=shard_count, base=VeriDBConfig(key_seed=31), **kwargs
    )
    return ShardedDatabase(config, registry=MetricsRegistry())


def fuzz_rows(rng, count):
    return [
        (i, rng.randrange(0, 8), None if rng.random() < 0.3 else rng.randrange(-5, 6))
        for i in rng.sample(range(count * 2), count)
    ]


def spy_requests(db):
    """Every ``(shard, op)`` the coordinator's router sends, in order."""
    sent = []
    call = db.router.call

    def counted(shard_id, op, payload):
        sent.append((shard_id, op))
        return call(shard_id, op, payload)

    db.router.call = counted
    return sent


@pytest.mark.parametrize("shard_count", [2, 4])
def test_fleet_load_answers_like_a_single_enclave_load(shard_count):
    rng = random.Random(60 + shard_count)
    rows = fuzz_rows(rng, 45)
    single = VeriDB(VeriDBConfig(key_seed=31))
    with fleet(shard_count) as sharded, chunk_rows(7):
        for db in (sharded, single):
            db.sql(_DDL.format(chain=", CHAIN (a)"))
            assert db.load_rows("t", iter(rows)) == len(rows)
        fuzzer = ShardFuzzer(rng)
        for _ in range(30):
            sql, params, exact = fuzzer.next_query()
            fleet_rows = sharded.execute(sql, params=params or None).rows
            single_rows = single.sql(sql, params=params or None).rows
            if exact:
                assert list(fleet_rows) == list(single_rows), sql
            else:
                assert _canon(fleet_rows) == _canon(single_rows), sql
        sharded.verify_now()
        single.verify_now()


def test_one_insert_many_request_per_owner_shard_per_chunk():
    rows = fuzz_rows(random.Random(5), 40)
    with fleet(4) as db, chunk_rows(7):
        db.sql(_DDL.format(chain=", CHAIN (a)"))
        store = db.table("t")
        sent = spy_requests(db)
        db.load_rows("t", rows)
        expected = [
            (shard, "insert_many")
            for chunk in row_chunks(rows)
            for shard in sorted({store._owner(row[0]) for row in chunk})
        ]
        assert sent == expected
        assert store.row_count == len(rows)


def test_non_pk_shard_key_rejects_duplicate_keys_across_shards_and_in_a_batch():
    with fleet(3, shard_keys={"t": "a"}) as db:
        db.sql(_DDL.format(chain=""))
        db.load_rows("t", [(i, i, 0) for i in range(12)])
        # pk 4 exists on a's owner of 4; a = 5 places the copy elsewhere
        store = db.table("t")
        assert store._owner(4) != store._owner(5)
        with pytest.raises(StorageError, match="duplicate primary key"):
            db.load_rows("t", [(20, 1, 0), (4, 5, 0)])
        # two rows of one batch share pk 30, and two owners
        with pytest.raises(StorageError, match="duplicate primary key"):
            db.load_rows("t", [(30, 4, 0), (31, 2, 0), (30, 5, 0)])
        assert store.row_count == 12
        assert db.execute("SELECT COUNT(*) FROM t WHERE id >= 20").rows == [(0,)]
        db.verify_now()
