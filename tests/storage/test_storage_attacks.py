"""Security tests at the storage layer.

Two attack surfaces exist above raw memory:

1. the *untrusted index* may lie about record locations — the access
   methods must catch this immediately through the ``(key, nKey)``
   evidence (:class:`ProofError`);
2. untrusted memory may be tampered under the access methods — caught at
   the next epoch close (:class:`VerificationFailure`), even though the
   access-method proof may transiently pass on tampered bytes.
"""

import pytest

from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.errors import ProofError, VerificationFailure
from repro.memory.adversary import Adversary
from repro.memory.cells import make_addr
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable
from tests.conftest import chunk_rows


def make_schema():
    return Schema(
        columns=[
            Column("id", IntegerType()),
            Column("count", IntegerType()),
            Column("note", TextType()),
        ],
        primary_key="id",
        chain_columns=("count",),
    )


def make_table(**config_kwargs):
    engine = StorageEngine(StorageConfig(**config_kwargs))
    table = VerifiableTable("t", make_schema(), engine)
    for pk in range(0, 50, 5):  # keys 0,5,...,45
        table.insert((pk, pk * 2, f"note{pk}"))
    engine.verify_now()
    return table, engine


def _data_addr_of(table, pk):
    rid = table.indexes[0].search(pk)
    page = table.heap.get_page(rid.page_id)
    offset, _ = page.slot_offset_for_compaction(rid.slot)
    return make_addr(rid.page_id, offset)


# ----------------------------------------------------------------------
# lying-index attacks: caught online by access-method proofs
# ----------------------------------------------------------------------
def test_index_points_to_wrong_record():
    table, _ = make_table()
    # make key 10 resolve to key 20's record
    rid_20 = table.indexes[0].search(20)
    table.indexes[0].insert(10, rid_20)
    with pytest.raises(ProofError):
        table.get(10)


def test_index_fakes_absence():
    """Index hides key 10 by answering with key 5's record; the evidence
    ⟨5, 10⟩ fails to prove absence of 10 (nKey is not past the target)."""
    table, _ = make_table()
    rid_5 = table.indexes[0].search(5)
    table.indexes[0].delete(10)
    table.indexes[0].insert(10, rid_5)  # future le-searches hit 5's record
    with pytest.raises(ProofError):
        table.get(10)


def test_index_omits_range_records():
    table, _ = make_table()
    table.indexes[0].delete(20)  # hide one record from the scan
    with pytest.raises(ProofError):
        table.scan(lo=10, hi=30)


def test_index_fabricates_range_records():
    table, _ = make_table()
    # duplicate rid under a fake key inside the range
    rid = table.indexes[0].search(25)
    table.indexes[0].insert(22, rid)
    with pytest.raises(ProofError):
        table.scan(lo=20, hi=30)


def test_index_truncates_tail_of_scan():
    table, _ = make_table()
    for pk in (35, 40, 45):
        table.indexes[0].delete(pk)
    with pytest.raises(ProofError):
        table.scan(lo=30, hi=45)


# ----------------------------------------------------------------------
# Figure 5 under projection: the checks read the scanned chain's key and
# nKey, never the projected columns, so every lie is caught whatever the
# caller reads and however the records are batched
# ----------------------------------------------------------------------
def _hide_one(table):
    table.indexes[0].delete(20)
    return {"lo": 10, "hi": 30}


def _fabricate_one(table):
    table.indexes[0].insert(22, table.indexes[0].search(25))
    return {"lo": 20, "hi": 30}


def _truncate_tail(table):
    for pk in (35, 40, 45):
        table.indexes[0].delete(pk)
    return {"lo": 30, "hi": 45}


def _hide_one_on_secondary_chain(table):
    table.indexes[1].delete((40, 20))
    return {"column": "count", "lo": 20, "hi": 60}


def _cross_wire_secondary_chain(table):
    table.indexes[1].insert((41, 20), table.indexes[1].search((60, 30)))
    return {"column": "count", "lo": 40, "hi": 60}


PROJECTIONS = [None, ("note",), ("count",), ("id",), (), ("note", "id", "note")]


@pytest.mark.parametrize("batch_size", [1, 7, 256])
@pytest.mark.parametrize("columns", PROJECTIONS, ids=str)
@pytest.mark.parametrize(
    "lie",
    [
        _hide_one,
        _fabricate_one,
        _truncate_tail,
        _hide_one_on_secondary_chain,
        _cross_wire_secondary_chain,
    ],
)
def test_lying_index_caught_under_every_projection(lie, columns, batch_size):
    table, _ = make_table()
    bounds = lie(table)
    with chunk_rows(batch_size), pytest.raises(ProofError):
        table.scan(**bounds, columns=columns)


@pytest.mark.parametrize("batch_size", [1, 7, 256])
@pytest.mark.parametrize("columns", PROJECTIONS[1:], ids=str)
def test_projection_changes_rows_not_evidence(columns, batch_size):
    table, engine = make_table()
    names = table.schema.column_names
    for bounds in (
        {},
        {"lo": 10, "hi": 30, "include_hi": False},
        {"column": "count", "lo": 20, "hi": 60},
        {"column": "count", "lo": 21, "hi": 21},
    ):
        rows, proof = table.scan_with_proof(**bounds)
        with chunk_rows(batch_size):
            narrow, narrow_proof = table.scan_with_proof(**bounds, columns=columns)
        assert narrow_proof == proof
        assert narrow == [
            tuple(row[names.index(name)] for name in columns) for row in rows
        ]
    engine.verify_now()


def test_index_loses_sentinel():
    from repro.catalog.types import BOTTOM

    table, _ = make_table()
    table.indexes[0].delete(BOTTOM)
    for pk in range(0, 50, 5):
        table.indexes[0].delete(pk)
    with pytest.raises(ProofError):
        table.get(3)


# ----------------------------------------------------------------------
# memory tampering under the access methods: caught at epoch close
# ----------------------------------------------------------------------
def test_tampered_record_detected_at_epoch_close():
    table, engine = make_table()
    adversary = Adversary(engine.memory)
    addr = _data_addr_of(table, 10)
    cell = engine.memory.raw_read(addr)
    adversary.corrupt(addr, cell.data[:-1] + b"X")
    with pytest.raises(VerificationFailure):
        engine.verify_now()


def test_sentinel_passed_off_as_a_data_record_never_derails_a_scan():
    """A chain's ``⊥`` sentinel re-flagged as a data record reaches the
    range filter with a key that is no ``(value, pk)`` pair: the scan
    must answer (the sentinel lies below every bound) or alarm, and the
    epoch close must alarm."""
    from repro.storage.keychain import BOTTOM, DATA_RECORD

    table, engine = make_table()
    rid = table.indexes[1].search(BOTTOM)
    page = table.heap.get_page(rid.page_id)
    addr = make_addr(rid.page_id, page.slot_offset_for_compaction(rid.slot)[0])
    stored = table._read_stored(rid)
    stored.sentinel_of = DATA_RECORD
    Adversary(engine.memory).corrupt(addr, table._encode(stored))
    try:
        rows = table.scan("count", lo=-5, hi=20)
    except (ProofError, VerificationFailure):
        pass
    else:
        assert [row[0] for row in rows] == [0, 5, 10]
    with pytest.raises(VerificationFailure):
        engine.verify_now()


def test_replayed_record_detected():
    table, engine = make_table()
    adversary = Adversary(engine.memory)
    addr = _data_addr_of(table, 10)
    adversary.observe(addr)
    table.update(10, {"note": "fresh value"})
    adversary.replay(addr)  # serve the stale note
    with pytest.raises(VerificationFailure):
        engine.verify_now()


def test_erased_record_detected_immediately_on_access():
    table, engine = make_table()
    adversary = Adversary(engine.memory)
    adversary.erase(_data_addr_of(table, 10))
    with pytest.raises(VerificationFailure):
        table.get(10)


def test_erased_record_detected_by_scan_even_without_access():
    table, engine = make_table()
    adversary = Adversary(engine.memory)
    adversary.erase(_data_addr_of(table, 10))
    with pytest.raises(VerificationFailure):
        engine.verify_now()


def test_unchecked_metadata_tampering_not_detected_but_harmless():
    """Section 4.3's accepted trade-off: with metadata excluded, forging
    the *header* is invisible — but it cannot change any query answer's
    evidence, it only lets the provider waste its own space."""
    table, engine = make_table(verify_metadata=False)
    page = next(iter(table.heap.pages()))
    from repro.storage.page import HEADER_OFFSET

    header_addr = make_addr(page.page_id, HEADER_OFFSET)
    engine.memory.raw_write(header_addr, b"\x00" * 12, 0, checked=False)
    engine.verify_now()  # no alarm: the header is outside the checked set
    # queries still verify fine
    row, proof = table.get(10)
    assert row == (10, 20, "note10")


def test_metadata_tampering_detected_when_verified():
    table, engine = make_table(verify_metadata=True)
    page = next(iter(table.heap.pages()))
    from repro.storage.page import HEADER_OFFSET

    header_addr = make_addr(page.page_id, HEADER_OFFSET)
    cell = engine.memory.raw_read(header_addr)
    engine.memory.raw_write(header_addr, b"\x00" * len(cell.data), cell.timestamp)
    with pytest.raises(VerificationFailure):
        engine.verify_now()


def test_checked_flag_flipping_is_detected():
    """Marking a record cell 'unchecked' to hide it from the scan leaves
    its WriteSet entry unmatched (see the Cell docstring)."""
    table, engine = make_table()
    addr = _data_addr_of(table, 10)
    cell = engine.memory.raw_read(addr)
    cell.checked = False
    with pytest.raises(VerificationFailure):
        engine.verify_now()


# ----------------------------------------------------------------------
# the bulk path: a batch's predecessors are evidence like any other
# ----------------------------------------------------------------------
def test_tampered_run_predecessor_between_chunks_is_caught():
    """An ascending load's second chunk is one run whose predecessor is
    the first chunk's last record; tampering that cell between the two
    chunks ends in an alarm."""
    from repro.core.config import VeriDBConfig
    from repro.core.database import VeriDB

    db = VeriDB(VeriDBConfig(key_seed=3))
    table = db.create_table("t", make_schema())
    adversary = Adversary(db.storage.memory)

    def rows():
        for pk in range(14):
            if pk == 7:  # chunk one is in; chunk two is being gathered
                addr = _data_addr_of(table, 6)
                data = db.storage.memory.raw_read(addr).data
                adversary.corrupt(addr, data.replace(b"note6", b"nOte6"))
            yield (pk, pk * 2, f"note{pk}")

    with chunk_rows(7):
        assert db.load_rows("t", rows()) == 14
    with pytest.raises(VerificationFailure):
        db.verify_now()


def _heap_cells(engine):
    """Untrusted memory's cells without their stamps: what a heap
    mutation changes and a verified read does not."""
    return {addr: cell.data for addr, cell in engine.memory.cells()}


def _lie_non_predecessor(table):
    table.indexes[0].insert(11, table.indexes[0].search(20))  # 12 -> record 20


def _lie_hides_predecessor(table):
    table.indexes[0].delete(10)  # 12 -> record 5, whose nKey 10 is no bound


def _lie_outside_the_chain(table):
    from repro.catalog.types import BOTTOM

    # chain-1 key (24, 12) -> the chain-0 sentinel, which has no chain-1 key
    table.indexes[1].insert((23, BOTTOM), table.indexes[0].search(BOTTOM))


@pytest.mark.parametrize(
    "lie", [_lie_non_predecessor, _lie_hides_predecessor, _lie_outside_the_chain]
)
def test_lying_index_for_a_run_is_refused_before_any_heap_mutation(lie):
    """The lie hits the batch's second run (on chain 0 or chain 1), after
    the first run's predecessor resolved honestly."""
    table, engine = make_table()
    lie(table)
    cells, pages = _heap_cells(engine), table.page_count()
    with pytest.raises(ProofError):
        table.insert_many([(1, 2, "one"), (12, 24, "twelve")])
    assert _heap_cells(engine) == cells
    assert table.page_count() == pages
    assert table.row_count == 10


def test_index_changing_its_answer_mid_splice_is_caught():
    """A run's predecessor is resolved again before its rewrite; an index
    that now names another record, one whose nKey no longer bounds the
    run, is refused rather than written."""
    table, _ = make_table()
    honest = table.indexes[0].search_le
    probes = []

    def fickle(key):
        probes.append(key)
        return honest(key - 10 if len(probes) == 2 else key)  # 12 -> record 0

    table.indexes[0].search_le = fickle
    with pytest.raises(ProofError, match="mid-splice"):
        table.insert((12, 24, "twelve"))
