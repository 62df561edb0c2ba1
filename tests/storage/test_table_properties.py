"""Property-based tests: VerifiableTable behaves like a dict model.

Random CRUD sequences must leave the table, its key chains, its
indexes and the write-read consistent memory all agreeing with a plain
Python model — and every verification pass must close cleanly
(the endorsement property: honest execution never raises alarms).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.errors import StorageError
from repro.storage import config as storage_config
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable, row_chunks
from tests.conftest import chunk_rows, relocate_on_delete


def make_table(compact_on_delete=False, **config_kwargs):
    schema = Schema(
        columns=[
            Column("pk", IntegerType()),
            Column("grp", IntegerType(), nullable=False),
            Column("note", TextType()),
        ],
        primary_key="pk",
        chain_columns=("grp",),
    )
    engine = StorageEngine(StorageConfig(page_size=1024, **config_kwargs))
    table = VerifiableTable("t", schema, engine)
    if compact_on_delete:
        relocate_on_delete(table.heap)
    return table, engine


_op = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(0, 40),
        st.integers(0, 5),
        st.text(max_size=12),
    ),
    st.tuples(st.just("delete"), st.integers(0, 40)),
    st.tuples(
        st.just("update"),
        st.integers(0, 40),
        st.integers(0, 5),
        st.text(max_size=12),
    ),
)


@settings(max_examples=40)
@given(ops=st.lists(_op, max_size=60))
@pytest.mark.parametrize(
    "config",
    [
        {},
        {"verify_metadata": True},
        {"compact_on_delete": True},
        {"verifier_mode": "touched"},
    ],
    ids=["default", "metadata", "eager", "touched"],
)
def test_random_crud_matches_model(config, ops):
    table, engine = make_table(**config)
    model: dict[int, tuple] = {}
    for op in ops:
        if op[0] == "insert":
            _, pk, grp, note = op
            if pk in model:
                with pytest.raises(Exception):
                    table.insert((pk, grp, note))
            else:
                table.insert((pk, grp, note))
                model[pk] = (pk, grp, note)
        elif op[0] == "delete":
            _, pk = op
            assert table.delete(pk) == (pk in model)
            model.pop(pk, None)
        else:
            _, pk, grp, note = op
            changed = table.update(pk, {"grp": grp, "note": note})
            assert changed == (pk in model)
            if changed:
                model[pk] = (pk, grp, note)

    # full contents agree, in primary-key order
    assert table.seq_scan() == sorted(model.values())
    assert table.row_count == len(model)
    # point lookups agree, including absence proofs
    for probe in range(0, 41, 3):
        row, proof = table.get(probe)
        assert row == model.get(probe)
        proof.check()
    # secondary-chain scans agree
    for lo, hi in ((0, 2), (1, 5), (3, 3)):
        expected = sorted(
            row for row in model.values() if lo <= row[1] <= hi
        )
        assert sorted(table.scan("grp", lo=lo, hi=hi)) == expected
    # every range over the primary chain agrees
    for lo, hi in ((0, 40), (5, 15), (39, 40)):
        expected = sorted(
            row for row in model.values() if lo <= row[0] <= hi
        )
        assert table.scan(lo=lo, hi=hi) == expected
    # honest execution: the epoch closes with no alarm
    engine.verify_now()


@settings(max_examples=25)
@given(
    keys=st.lists(
        st.integers(0, 1000), min_size=1, max_size=80, unique=True
    )
)
def test_chain_invariants_after_bulk_insert(keys):
    """The primary chain is exactly ⊥ → sorted(keys) → ⊤ after inserts."""
    table, engine = make_table()
    for key in keys:
        table.insert((key, key % 7, "x"))
    ordered = sorted(keys)
    layout = table.layout
    # walk the chain from the sentinel and compare
    from repro.catalog.types import BOTTOM, TOP

    chain = []
    _, rid = table.indexes[0].search_le(BOTTOM)
    stored = layout.from_tuple(table.codec.decode(table.heap.read(rid)))
    cursor = stored.next_key(0)
    while cursor is not TOP:
        rid = table.indexes[0].search(cursor)
        stored = layout.from_tuple(table.codec.decode(table.heap.read(rid)))
        chain.append(stored.key(0))
        cursor = stored.next_key(0)
    assert chain == ordered
    engine.verify_now()


@settings(max_examples=20)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 10)),
        min_size=1,
        max_size=60,
        unique_by=lambda t: t[0],
    ),
    lo=st.integers(0, 10),
    hi=st.integers(0, 10),
    include_lo=st.booleans(),
    include_hi=st.booleans(),
)
def test_secondary_scan_bounds_property(data, lo, hi, include_lo, include_hi):
    """Inclusive/exclusive bounds behave exactly like a filtered model."""
    table, engine = make_table()
    for pk, grp in data:
        table.insert((pk, grp, None))

    def keep(value):
        if value < lo or (not include_lo and value == lo):
            return False
        if value > hi or (not include_hi and value == hi):
            return False
        return True

    expected = sorted((pk, grp, None) for pk, grp in data if keep(grp))
    rows = sorted(
        table.scan("grp", lo=lo, hi=hi, include_lo=include_lo, include_hi=include_hi)
    )
    assert rows == expected
    engine.verify_now()


# ----------------------------------------------------------------------
# the splice kernel: a batch spliced at once equals the same rows
# inserted one at a time
# ----------------------------------------------------------------------
def make_chained(n_chains):
    """A table whose primary key is chain 0, plus ``n_chains - 1``
    secondary chains (an INTEGER and a TEXT column that repeat)."""
    schema = Schema(
        columns=[
            Column("pk", IntegerType()),
            Column("a", IntegerType(), nullable=False),
            Column("b", TextType(), nullable=False),
            Column("note", TextType()),
        ],
        primary_key="pk",
        chain_columns=("a", "b")[: n_chains - 1],
    )
    engine = StorageEngine(StorageConfig(page_size=1024))
    return VerifiableTable("t", schema, engine), engine


def rsws_state(engine):
    return [(*p.rs, *p.ws) for p in engine.vmem.rsws.partitions]


def chain_answers(table):
    """Every chain's full scan: its rows and the tallies of its proof."""
    answers = []
    for column in table.layout.chains:
        rows, proof = table.scan_with_proof(column)
        answers.append((rows, proof.records_read, proof.links_checked))
    return answers


def _row(pk, a, b):
    return (pk, a, b, "n" * (pk % 23))


_batches = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 6), st.sampled_from("xyz")),
    min_size=2,
    max_size=70,
    unique_by=lambda r: r[0],
)


@settings(max_examples=30)
@given(n_chains=st.integers(1, 3), drawn=_batches, data=st.data())
@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
def test_insert_many_equals_inserting_one_at_a_time(chunk, n_chains, drawn, data):
    rows = [_row(*r) for r in drawn]
    split = data.draw(st.integers(1, len(rows) - 1), label="existing rows")
    existing, batch = rows[:split], rows[split:]
    one_by_one, one_engine = make_chained(n_chains)
    spliced, spliced_engine = make_chained(n_chains)
    with chunk_rows(chunk or storage_config.BATCH_ROWS):
        for table in (one_by_one, spliced):
            for row in existing:
                table.insert(row)
        for row in batch:
            one_by_one.insert(row)
        for part in row_chunks(batch):
            spliced.insert_many(part)
        assert spliced.seq_scan() == one_by_one.seq_scan() == sorted(rows)
        assert chain_answers(spliced) == chain_answers(one_by_one)
    assert spliced.row_count == one_by_one.row_count == len(rows)
    for engine in (one_engine, spliced_engine):
        engine.verify_now()


@settings(max_examples=25)
@given(n_chains=st.integers(1, 3), drawn=_batches, data=st.data())
def test_a_batch_with_a_duplicate_changes_nothing(n_chains, drawn, data):
    rows = [_row(*r) for r in drawn]
    split = data.draw(st.integers(1, len(rows) - 1), label="existing rows")
    existing, batch = rows[:split], rows[split:]
    twin = data.draw(st.sampled_from(existing + batch), label="duplicated row")
    at = data.draw(st.integers(0, len(batch)), label="position")
    batch.insert(at, (twin[0], twin[1] + 1, "w", None))
    table, engine = make_chained(n_chains)
    table.insert_many(existing)
    before = rsws_state(engine)
    with pytest.raises(StorageError, match="duplicate primary key"):
        table.insert_many(batch)
    assert rsws_state(engine) == before
    assert table.row_count == len(existing)
    assert table.seq_scan() == sorted(existing)
    engine.verify_now()
