"""Property: a scan plan's compiled decoder ≡ the generic record path.

The reference is the code every write and point read still runs —
``RecordCodec.decode`` → ``ChainLayout.from_tuple`` → ``StoredRecord``
→ ``row_from_stored`` — projected to the plan's columns. Over random
schemas (INT/FLOAT/TEXT/DATE/BOOL columns, nullable or not, one or two
chains), random data records (NULLs, ``⊤`` successors), every chain's
``⊥`` sentinel and random projections, ``decode(payload, plan)`` must
return exactly that, and on damaged bytes it must never answer with
different values. The chunk form a scan runs must equal that decode
record by record, and fail where it fails.
"""

import datetime
from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, Schema
from repro.catalog.types import (
    TOP,
    BooleanType,
    DateType,
    FloatType,
    IntegerType,
    TextType,
)
from repro.errors import IntegrityError, StorageError
from repro.storage.keychain import DATA_RECORD, ChainLayout
from repro.storage.record import RecordCodec
from tests.storage.test_record import damaged

_VALUES = {
    IntegerType: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    FloatType: st.floats(allow_nan=False),
    TextType: st.text(max_size=8),
    DateType: st.dates(),
    BooleanType: st.booleans(),
}
#: chained columns must order totally against every other value
_KEY_TYPES = [IntegerType, TextType, DateType, FloatType]


@st.composite
def layouts(draw):
    key_types = draw(st.lists(st.sampled_from(_KEY_TYPES), min_size=1, max_size=2))
    data_types = draw(st.lists(st.sampled_from(sorted(_VALUES, key=str)), max_size=5))
    columns = [
        Column(f"k{i}", kind(), nullable=False) for i, kind in enumerate(key_types)
    ] + [
        Column(f"d{i}", kind(), nullable=draw(st.booleans()))
        for i, kind in enumerate(data_types)
    ]
    order = draw(st.permutations(range(len(columns))))
    columns = [columns[i] for i in order]
    chains = tuple(f"k{i}" for i in range(1, len(key_types)))
    return ChainLayout(Schema(columns, primary_key="k0", chain_columns=chains))


@st.composite
def stored_records(draw, layout):
    """A data record (maybe with NULLs / ``⊤`` successors) or a sentinel."""
    if draw(st.integers(0, 7)) == 0:
        chain_id = draw(st.integers(0, layout.n_chains - 1))
        return layout.sentinel(chain_id, draw(st.sampled_from([TOP, 5])))
    row = []
    for column in layout.schema.columns:
        value = draw(_VALUES[type(column.type)])
        if column.nullable and draw(st.integers(0, 3)) == 0:
            value = None
        row.append(value)
    row = tuple(row)
    nexts = []
    for chain_id in range(layout.n_chains):
        if draw(st.integers(0, 4)) == 0:
            nexts.append(TOP)
        else:
            successor = list(row)
            for column in layout.schema.columns:
                if not column.nullable:
                    i = layout.schema.column_index(column.name)
                    successor[i] = draw(_VALUES[type(column.type)])
            nexts.append(layout.chain_key(chain_id, tuple(successor)))
    return layout.stored_from_row(row, nexts)


def reference(layout, codec, payload, chain_id, names):
    """The projection through the generic path the writes use."""
    stored = layout.from_tuple(codec.decode(payload))
    if stored.sentinel_of != DATA_RECORD:
        row = None
    else:
        full = layout.row_from_stored(stored)
        row = tuple(full[layout.schema.column_index(name)] for name in names)
    return stored.sentinel_of, stored.key(chain_id), stored.next_key(chain_id), row


def through_plan(codec, payload, plan):
    sentinel_of, key, next_key, row = codec.decode(payload, plan)
    # a sentinel's row is never looked at by the scan
    return sentinel_of, key, next_key, (row if sentinel_of == DATA_RECORD else None)


@st.composite
def cases(draw):
    layout = draw(layouts())
    stored = draw(stored_records(layout))
    chain_id = draw(st.integers(0, layout.n_chains - 1))
    names = layout.schema.column_names
    columns = draw(st.one_of(st.none(), st.lists(st.sampled_from(names), max_size=4)))
    return layout, stored, chain_id, columns


@settings(max_examples=200)
@given(case=cases())
def test_plan_decode_is_the_projection_of_generic_decode(case):
    layout, stored, chain_id, columns = case
    codec = RecordCodec()
    payload = codec.encode(layout.to_tuple(stored))
    plan = layout.scan_plan(chain_id, columns)
    names = layout.schema.column_names if columns is None else columns
    expected = reference(layout, codec, payload, chain_id, names)
    got = through_plan(codec, payload, plan)
    assert got == expected and repr(got) == repr(expected)  # True is not 1
    # the compiled decoder itself answers exactly the common shape:
    # data records with no NULL and no ⊤ successor
    flat = layout.to_tuple(stored)
    common = stored.sentinel_of == DATA_RECORD and None not in flat and TOP not in flat
    assert (plan.fast(payload) is not None) == common
    assert codec.fallbacks == (0 if common else 1)


class _Replay:
    """Stands in for ``st.data()`` in an ``@example``: canned draws."""

    def __init__(self, *draws):
        self._draws = iter(draws)

    def draw(self, strategy):
        return next(self._draws)


def _float_key_case():
    """One FLOAT primary key holding ``inf``, successor ``⊤``."""
    layout = ChainLayout(
        Schema([Column("k0", FloatType(), nullable=False)], primary_key="k0")
    )
    return layout, layout.stored_from_row((float("inf"),), [TOP]), 0, None


@settings(max_examples=200)
@given(case=cases(), data=st.data())
# bit 112 turns the key ``inf`` into a NaN, which both paths must decode
# alike although ``nan != nan``
@example(case=_float_key_case(), data=_Replay("flip", 112))
def test_plan_decode_never_answers_differently_on_damaged_bytes(case, data):
    layout, stored, chain_id, columns = case
    codec = RecordCodec()
    payload = damaged(codec.encode(layout.to_tuple(stored)), data.draw)
    plan = layout.scan_plan(chain_id, columns)
    names = layout.schema.column_names if columns is None else columns

    def attempt(fn, *args):
        try:
            return fn(*args), None
        except (StorageError, IntegrityError) as exc:
            return None, exc

    expected, generic_error = attempt(reference, layout, codec, payload, chain_id, names)
    got, plan_error = attempt(through_plan, codec, payload, plan)
    if generic_error is None:
        # repr, not ==: NaN-aware, and True is not 1
        assert plan_error is None and repr(got) == repr(expected)
    elif plan_error is None:
        # the one licence projection takes: a value nobody reads is
        # stepped over, so its UTF-8 / calendar defect goes unreported.
        # Framing defects (tags, counts, lengths, the end) never do.
        assert isinstance(generic_error.__cause__, (ValueError, OverflowError))
        assert plan.fields_skipped > 0
    else:
        assert type(plan_error) is type(generic_error)


def test_reference_and_plan_agree_on_a_known_record():
    """A readable anchor for the properties above."""
    layout = ChainLayout(
        Schema(
            [
                Column("id", IntegerType()),
                Column("name", TextType()),
                Column("day", DateType(), nullable=False),
                Column("ok", BooleanType()),
            ],
            primary_key="id",
            chain_columns=("day",),
        )
    )
    codec = RecordCodec()
    day = datetime.date(2021, 6, 20)
    stored = layout.stored_from_row((7, "x", day, True), [9, (day, 8)])
    payload = codec.encode(layout.to_tuple(stored))
    plan = layout.scan_plan(1, ["ok", "day"])
    assert plan.fast(payload) == (DATA_RECORD, (day, 7), (day, 8), (True, day))
    assert plan.fields_skipped == 3  # the id chain's key and nKey, and name


# ----------------------------------------------------------------------
# the chunk form: a scan decodes a whole chunk of records in one loop
# ----------------------------------------------------------------------
@st.composite
def chunk_cases(draw):
    layout = draw(layouts())
    records = draw(st.lists(stored_records(layout), min_size=3, max_size=8))
    chain_id = draw(st.integers(0, layout.n_chains - 1))
    names = layout.schema.column_names
    columns = draw(st.one_of(st.none(), st.lists(st.sampled_from(names), max_size=4)))
    return layout, records, chain_id, columns


def record_by_record(codec, payloads, plan):
    """What the chunk form must equal: ``decode(payload, plan)`` per
    record, as lists of sentinel_of, key, nKey and each projected value."""
    decoded = [codec.decode(payload, plan) for payload in payloads]
    return [
        [record[0] for record in decoded],
        [record[1] for record in decoded],
        [record[2] for record in decoded],
        *([list(values) for values in zip(*(row for *_, row in decoded))]),
    ]


def chunked(codec, payloads, plan):
    return plan.chunk(payloads, partial(codec.decode, plan=plan))


@settings(max_examples=150)
@given(case=chunk_cases())
def test_chunk_decode_is_the_record_by_record_decode(case):
    layout, records, chain_id, columns = case
    codec = RecordCodec()
    payloads = [codec.encode(layout.to_tuple(stored)) for stored in records]
    plan = layout.scan_plan(chain_id, columns)
    expected = record_by_record(codec, payloads, plan)
    misses = codec.fallbacks
    got = chunked(codec, payloads, plan)
    width = len(layout.schema.column_names if columns is None else columns)
    assert len(got) == 3 + width
    assert repr(got) == repr(expected)  # True is not 1
    assert codec.fallbacks == 2 * misses  # the same records took the generic path


@settings(max_examples=200)
@given(case=chunk_cases(), where=st.sampled_from(["start", "middle", "end"]), data=st.data())
def test_a_damaged_record_fails_a_chunk_as_it_fails_alone(case, where, data):
    """A damaged record at the start, middle or end of a chunk: the
    chunk raises the typed error the record raises on its own, or, if
    that record decodes, equals the record-by-record decode."""
    layout, records, chain_id, columns = case
    codec = RecordCodec()
    payloads = [codec.encode(layout.to_tuple(stored)) for stored in records]
    at = {"start": 0, "middle": len(payloads) // 2, "end": len(payloads) - 1}[where]
    payloads[at] = damaged(payloads[at], data.draw)
    plan = layout.scan_plan(chain_id, columns)

    def attempt(fn):
        try:
            return fn(codec, payloads, plan), None
        except (StorageError, IntegrityError) as exc:
            return None, exc

    expected, expected_error = attempt(record_by_record)
    got, error = attempt(chunked)
    assert type(error) is type(expected_error)
    if error is None:
        assert repr(got) == repr(expected)
