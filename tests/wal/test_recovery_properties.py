"""Property: write → crash → recover ≡ never having crashed.

For any committed DML history, any group-commit batch size and any
record-cache configuration, an instance recovered from its write-ahead
log answers queries identically to a twin instance that executed the
same history and never died — and the recovered content digest equals
one recomputed from the twin's rows alone.

The "crash" is modeled as abandoning the instance right after its last
group commit (the acknowledged-durable boundary); the unsynced-tail
case — crashing with records still buffered — is covered
deterministically in ``test_wal_log.py`` because its expected state
diverges from the twin's by construction.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_from_wal
from repro.crypto.keys import KeyChain
from repro.crypto.mac import TAG_SIZE, MessageAuthenticator
from repro.storage.config import StorageConfig
from repro.storage.record import RecordCodec
from repro.wal import row_element
from tests.conftest import chunk_rows

SEED = 59


def shadow_digest_hex(table, rows):
    """The content digest recomputed from rows alone: the XOR of every
    row's keyed tag, independent of the code under test."""
    auth = MessageAuthenticator(KeyChain(seed=SEED).key_for("wal"))
    codec = RecordCodec()
    digest = 0
    for row in rows:
        digest ^= int.from_bytes(row_element(auth, table, codec.encode(tuple(row))), "little")
    return digest.to_bytes(TAG_SIZE, "little").hex()

#: (op kind, key, value) — keys from a small space so updates/deletes
#: actually hit live rows
_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=-1000, max_value=1000),
    ),
    min_size=1,
    max_size=40,
)


def _execute(db, ops, checkpoint_at):
    """Run the guarded op history; both twins take the same path."""
    live = set()
    for i, (kind, key, value) in enumerate(ops):
        if kind == "insert" and key not in live:
            db.sql(f"INSERT INTO t VALUES ({key}, {value})")
            live.add(key)
        elif kind == "update" and key in live:
            db.sql(f"UPDATE t SET v = {value} WHERE id = {key}")
        elif kind == "delete" and key in live:
            db.sql(f"DELETE FROM t WHERE id = {key}")
            live.discard(key)
        if i == checkpoint_at:
            db.checkpoint()


def _config(tmp_path, batch, cache, with_wal):
    storage = StorageConfig(cache_bytes=1 << 16 if cache else 0)
    return VeriDBConfig(
        key_seed=SEED,
        storage=storage,
        wal_dir=str(tmp_path / "wal") if with_wal else None,
        wal_group_commit=batch,
    )


@settings(max_examples=12)
@given(
    ops=_ops,
    batch=st.sampled_from([1, 7, 256]),
    cache=st.booleans(),
    data=st.data(),
)
def test_recovered_equals_never_crashed(tmp_path_factory, ops, batch, cache, data):
    tmp_path = tmp_path_factory.mktemp("wal_prop")
    checkpoint_at = data.draw(
        st.integers(min_value=-1, max_value=len(ops) - 1), label="checkpoint_at"
    )

    crashed = VeriDB(_config(tmp_path, batch, cache, with_wal=True))
    crashed.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    _execute(crashed, ops, checkpoint_at)
    crashed.wal.commit()  # the durability boundary; then the power fails

    twin = VeriDB(_config(tmp_path, batch, cache, with_wal=False))
    twin.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    _execute(twin, ops, checkpoint_at)

    recovered = recover_from_wal(str(tmp_path / "wal"), _config(tmp_path, batch, cache, True))
    query = "SELECT id, v FROM t ORDER BY id"
    assert recovered.sql(query).rows == twin.sql(query).rows
    assert (
        recovered.sql("SELECT COUNT(*) FROM t").rows
        == twin.sql("SELECT COUNT(*) FROM t").rows
    )

    # digest equality against an independent recomputation from the twin
    assert recovered.wal.content_digest_hex() == shadow_digest_hex("t", twin.sql(query).rows)

    # and the recovered instance passes a full verification pass
    recovered.verify_now()


# ----------------------------------------------------------------------
# projection pushdown never reaches the log: DML finds its rows through
# the same scans SELECT narrows, and must still log whole rows
# ----------------------------------------------------------------------
_WIDE_DDL = (
    "CREATE TABLE w (id INTEGER PRIMARY KEY, k INTEGER NOT NULL, "
    "name TEXT NOT NULL, price FLOAT, day DATE NOT NULL, note TEXT, CHAIN (k))"
)


def _wide_history(db):
    for i in range(40):
        note = "NULL" if i % 3 == 0 else f"'n{i}'"
        price = "NULL" if i % 7 == 0 else f"{i}.25"
        db.sql(
            f"INSERT INTO w VALUES ({i}, {i % 5}, 'name{i}', {price}, "
            f"DATE '1995-01-{i % 28 + 1:02d}', {note})"
        )
    # narrow scans between the writes: their decoders and cached plans
    # are live while the DML below plans its own (full-width) scans
    db.sql("SELECT name FROM w WHERE price > 10")
    db.sql("SELECT COUNT(*) FROM w WHERE k = 2")
    db.sql("UPDATE w SET note = 'seen' WHERE price > 30")  # non-key predicate
    db.sql("UPDATE w SET k = 9 WHERE name = 'name4'")  # re-splices a chain
    db.sql("DELETE FROM w WHERE note IS NULL AND k = 1")
    db.sql("DELETE FROM w WHERE day = DATE '1995-01-03'")


def _wide_config(tmp_path, with_wal):
    return VeriDBConfig(
        key_seed=SEED,
        wal_dir=str(tmp_path / "wal") if with_wal else None,
        wal_group_commit=7,
    )


@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_content_digest_covers_whole_rows_under_projection(tmp_path, batch_size):
    with chunk_rows(batch_size):
        _digest_covers_whole_rows(tmp_path)


def _digest_covers_whole_rows(tmp_path):
    crashed = VeriDB(_wide_config(tmp_path, with_wal=True))
    crashed.sql(_WIDE_DDL)
    _wide_history(crashed)
    crashed.wal.commit()

    twin = VeriDB(_wide_config(tmp_path, with_wal=False))
    twin.sql(_WIDE_DDL)
    _wide_history(twin)

    recovered = recover_from_wal(
        str(tmp_path / "wal"), _wide_config(tmp_path, True)
    )
    for query in (
        "SELECT * FROM w ORDER BY id",
        "SELECT note FROM w ORDER BY id",
        "SELECT k, COUNT(*), MAX(price) FROM w GROUP BY k ORDER BY k",
        "SELECT day FROM w WHERE k >= 3 ORDER BY id",
    ):
        assert recovered.sql(query).rows == twin.sql(query).rows, query

    expected = shadow_digest_hex("w", twin.sql("SELECT * FROM w").rows)
    assert recovered.wal.content_digest_hex() == expected
    recovered.verify_now()
