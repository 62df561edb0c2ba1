"""Property-based tests for key-chain splice correctness.

The paper's core storage invariant: every table is threaded by (key,
nKey) chains — one per chain column — and after *any* sequence of
inserts, deletes and updates each chain must read, from the ⊥ sentinel,
as exactly the sorted live key set with each record's nKey naming its
immediate successor. Splices (insert links a record between neighbours,
delete re-links around it, update of a chained column does both) must
never leave a dangling, duplicated or orphaned link — including across
compaction, which physically moves records without touching the logical
chain.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, Schema
from repro.catalog.types import BOTTOM, TOP, IntegerType, TextType
from repro.core.incident import audit_table
from repro.memory.cells import make_addr
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable
from tests.conftest import relocate_on_delete


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


def chain_walk(table, chain_id):
    """Follow chain ``chain_id`` from ⊥ via raw reads; return the keys.

    This is the adversary's-eye view: no proofs, no verified layer, just
    the stored (key, nKey) links as they sit in untrusted memory. The
    walk terminates only if every link resolves; duplicates or cycles
    fail the test via the exactly-once assertion below.
    """
    layout = table.layout
    keyed = {}
    for page in table.heap.pages():
        for slot in page.live_slots():
            offset, _length = page.slot_offset_for_compaction(slot)
            cell = table.engine.memory.try_read(make_addr(page.page_id, offset))
            assert cell is not None, "live slot with no backing cell"
            stored = layout.from_tuple(table.codec.decode(cell.data))
            key = stored.chain_keys[chain_id]
            if key is not None:
                assert key not in keyed, f"duplicate chain key {key!r}"
                keyed[key] = stored
    walk = []
    cursor = BOTTOM
    steps = 0
    while True:
        assert cursor in keyed, f"dangling link to {cursor!r}"
        nxt = keyed[cursor].chain_nexts[chain_id]
        if nxt is TOP:
            break
        walk.append(nxt)
        cursor = nxt
        steps += 1
        assert steps <= len(keyed), "cycle in chain"
    assert len(walk) == len(keyed) - 1, "orphaned records off the chain"
    return walk


def assert_chains_exact(table, model):
    """Both chains spell out the sorted live key sets, link by link."""
    assert chain_walk(table, 0) == sorted(model)
    assert chain_walk(table, 1) == sorted(
        (row[1], row[0]) for row in model.values()
    )
    assert audit_table(table) == []


_op = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(0, 30),
        st.integers(0, 4),
        st.text(max_size=8),
    ),
    st.tuples(st.just("delete"), st.integers(0, 30)),
    st.tuples(
        st.just("update"),
        st.integers(0, 30),
        st.integers(0, 4),
        st.text(max_size=8),
    ),
)


def apply_ops(table, model, ops):
    for op in ops:
        if op[0] == "insert":
            _, pk, grp, note = op
            if pk not in model:
                table.insert((pk, grp, note))
                model[pk] = (pk, grp, note)
        elif op[0] == "delete":
            table.delete(op[1])
            model.pop(op[1], None)
        else:
            _, pk, grp, note = op
            if table.update(pk, {"grp": grp, "note": note}):
                model[pk] = (pk, grp, note)


@settings(max_examples=40)
@given(ops=st.lists(_op, max_size=50))
@pytest.mark.parametrize(
    "config",
    [{}, {"compact_on_delete": True}],
    ids=["default", "eager-compaction"],
)
def test_splices_preserve_exact_adjacency(config, ops):
    table, engine = make_table(**config)
    model: dict[int, tuple] = {}
    apply_ops(table, model, ops)
    assert_chains_exact(table, model)
    engine.verify_now()


@settings(max_examples=25)
@given(
    ops=st.lists(_op, min_size=10, max_size=50),
    more_ops=st.lists(_op, max_size=20),
)
def test_compaction_relocates_without_breaking_links(ops, more_ops):
    """Compaction moves records; the logical chain must be identical
    before and after, and further splices on the compacted layout must
    still land exactly."""
    table, engine = make_table()
    model: dict[int, tuple] = {}
    apply_ops(table, model, ops)
    for page in table.heap.pages():
        page.compact()
    engine.verify_now()
    assert_chains_exact(table, model)
    apply_ops(table, model, more_ops)  # splice into the compacted layout
    assert_chains_exact(table, model)
    engine.verify_now()


@settings(max_examples=25)
@given(
    keys=st.lists(st.integers(0, 200), min_size=2, max_size=40, unique=True),
    drop=st.data(),
)
def test_delete_splices_around_every_victim(keys, drop):
    """Deleting any subset re-links each survivor to its next survivor."""
    table, engine = make_table()
    for key in keys:
        table.insert((key, key % 5, None))
    victims = drop.draw(st.sets(st.sampled_from(keys)))
    for victim in victims:
        assert table.delete(victim)
    survivors = sorted(set(keys) - victims)
    assert chain_walk(table, 0) == survivors
    assert audit_table(table) == []
    engine.verify_now()
