"""Unit and property tests for the record codec."""

import datetime
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog.types import BOTTOM, TOP
from repro.errors import StorageError
from repro.storage.record import (
    BOOL,
    DATE,
    FLOAT,
    INT,
    MAX_NESTING,
    TEXT,
    DecodePlan,
    RecordCodec,
    Ref,
    project_values,
)


@pytest.fixture
def codec():
    return RecordCodec()


def test_roundtrip_all_types(codec):
    record = (
        None,
        42,
        -1,
        3.5,
        "héllo",
        True,
        False,
        datetime.date(2021, 6, 20),
        BOTTOM,
        TOP,
        (7, BOTTOM),
    )
    assert codec.decode(codec.encode(record)) == record


def test_empty_record(codec):
    assert codec.decode(codec.encode(())) == ()


def test_deterministic(codec):
    record = (1, "a", None)
    assert codec.encode(record) == codec.encode(record)


def test_distinct_values_distinct_bytes(codec):
    assert codec.encode((1,)) != codec.encode((2,))
    assert codec.encode(("1",)) != codec.encode((1,))
    assert codec.encode((True,)) != codec.encode((1,))
    assert codec.encode((None,)) != codec.encode((BOTTOM,))


def test_nested_tuples(codec):
    record = (((1, 2), (3, (4,))),)
    assert codec.decode(codec.encode(record)) == record


def test_sentinels_identity_after_decode(codec):
    decoded = codec.decode(codec.encode((BOTTOM, TOP)))
    assert decoded[0] is BOTTOM
    assert decoded[1] is TOP


def test_unencodable_value(codec):
    with pytest.raises(StorageError):
        codec.encode((object(),))
    with pytest.raises(StorageError):
        codec.encode(([1, 2],))


def test_malformed_payload_rejected(codec):
    good = codec.encode((1, "abc"))
    with pytest.raises(StorageError):
        codec.decode(good[:-1])  # truncated
    with pytest.raises(StorageError):
        codec.decode(good + b"\x00")  # trailing garbage
    with pytest.raises(StorageError):
        codec.decode(b"\xff\xff\xff\xff")  # absurd count


_scalar = st.one_of(
    st.none(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.booleans(),
    st.dates(),
    st.just(BOTTOM),
    st.just(TOP),
)
_value = st.one_of(_scalar, st.tuples(_scalar, _scalar))


@given(record=st.lists(_value, max_size=12).map(tuple))
def test_roundtrip_property(record):
    codec = RecordCodec()
    assert codec.decode(codec.encode(record)) == record


@given(
    a=st.lists(_scalar, max_size=6).map(tuple),
    b=st.lists(_scalar, max_size=6).map(tuple),
)
def test_injective_property(a, b):
    codec = RecordCodec()
    if a != b:
        assert codec.encode(a) != codec.encode(b)


# ----------------------------------------------------------------------
# typed failures: nothing but StorageError escapes the codec
# ----------------------------------------------------------------------
def _one_value(tag: int, body: bytes) -> bytes:
    return struct.pack("<IB", 1, tag) + body


def _deep_tuple(depth: int) -> bytes:
    return struct.pack("<I", 1) + struct.pack("<BI", 9, 1) * depth + b"\x00"


MALFORMED_VALUES = {
    "date ordinal 0 (ValueError)": _one_value(6, struct.pack("<q", 0)),
    "date ordinal 2**40 (OverflowError)": _one_value(6, struct.pack("<q", 2**40)),
    "5000-deep tuple (RecursionError)": _deep_tuple(5000),
    "tuple one past the nesting limit": _deep_tuple(MAX_NESTING),
}


@pytest.mark.parametrize("payload", MALFORMED_VALUES.values(), ids=MALFORMED_VALUES)
def test_malformed_values_raise_storage_error(codec, payload):
    with pytest.raises(StorageError):
        codec.decode(payload)
    # the compiled path hands the record over and fails the same way
    plan = DecodePlan([DATE], (Ref(0),), lambda values: values)
    with pytest.raises(StorageError):
        codec.decode(payload, plan)
    assert plan.fast(payload) is None


def test_nesting_up_to_the_limit_roundtrips(codec):
    value = 7
    for _ in range(MAX_NESTING - 1):
        value = (value,)
    assert codec.decode(codec.encode((value,))) == (value,)
    assert codec.decode(_deep_tuple(MAX_NESTING - 1))
    with pytest.raises(StorageError):
        codec.encode(((value,),))


@pytest.mark.parametrize("value", [2**70, -(2**63) - 1, (1, 2**64)])
def test_integer_beyond_64_bits_is_a_storage_error(codec, value):
    # reachable from client parameters, which bypass IntegerType.validate
    with pytest.raises(StorageError):
        codec.encode((value,))


# ----------------------------------------------------------------------
# compiled decoding (DecodePlan) against the generic decoder
# ----------------------------------------------------------------------
_KIND_VALUES = {
    INT: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    FLOAT: st.floats(allow_nan=False),
    TEXT: st.text(max_size=12),
    DATE: st.dates(),
    BOOL: st.booleans(),
}
_kind = st.sampled_from(sorted(_KIND_VALUES))
_shape = st.lists(
    st.one_of(_kind, st.lists(_kind, min_size=1, max_size=3).map(tuple)),
    min_size=1,
    max_size=8,
)


def _value_of(kind, draw):
    if isinstance(kind, tuple):
        return tuple(draw(_KIND_VALUES[k]) for k in kind)
    return draw(_KIND_VALUES[kind])


def _whole_record_plan(shape):
    """A plan reading every stored value (nothing is stepped over)."""
    template = tuple(Ref(field) for field in range(len(shape)))

    def project(values):
        if len(values) != len(shape):
            raise StorageError("field count")
        return project_values(values, template)

    return DecodePlan(shape, template, project)


def damaged(payload: bytes, draw) -> bytes:
    """``payload`` truncated, extended, or with one bit flipped."""
    damage = draw(st.sampled_from(["truncate", "extend", "flip"]))
    if damage == "truncate":
        return payload[: draw(st.integers(0, len(payload) - 1))]
    if damage == "extend":
        return payload + draw(st.binary(min_size=1, max_size=9))
    bit = draw(st.integers(0, len(payload) * 8 - 1))
    flipped = bytearray(payload)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except StorageError:
        return StorageError


@given(shape=_shape, data=st.data())
def test_compiled_decoder_is_the_generic_one_on_its_shape(shape, data):
    codec = RecordCodec()
    plan = _whole_record_plan(shape)
    assert plan.fields_skipped == 0
    record = tuple(_value_of(kind, data.draw) for kind in shape)
    payload = codec.encode(record)
    assert plan.fast(payload) == record
    assert codec.fallbacks == 0

    # one value off the shape (NULL, a sentinel, another type): a miss,
    # and the generic decoder answers instead
    position = data.draw(st.integers(0, len(shape) - 1))
    odd = data.draw(st.sampled_from([None, BOTTOM, TOP, ("x", 1, 2, 3)]))
    deviant = record[:position] + (odd,) + record[position + 1 :]
    assert plan.fast(codec.encode(deviant)) is None
    assert codec.decode(codec.encode(deviant), plan) == deviant
    assert codec.fallbacks == 1


@given(shape=_shape, data=st.data())
def test_compiled_decoder_never_differs_on_damaged_bytes(shape, data):
    """Reading every value, the two decoders agree on *any* bytes:
    equal values, or StorageError from both."""
    codec = RecordCodec()
    plan = _whole_record_plan(shape)
    payload = damaged(
        codec.encode(tuple(_value_of(kind, data.draw) for kind in shape)), data.draw
    )
    # compared by repr: a flipped float bit can make a NaN, equal to nothing
    generic = repr(_outcome(lambda: plan.project(codec.decode(payload))))
    assert repr(_outcome(codec.decode, payload, plan)) == generic
    fast = plan.fast(payload)
    assert fast is None or repr(fast) == generic


def test_skipped_values_are_framed_but_not_validated():
    """What projection skips: the UTF-8 and calendar checks of values
    nobody reads. Tags, lengths and the record's end are still held."""
    codec = RecordCodec()
    shape = [INT, TEXT, DATE, INT]
    plan = DecodePlan(shape, (Ref(0), Ref(3)), lambda v: project_values(v, (Ref(0), Ref(3))))
    assert plan.fields_skipped == 2
    good = codec.encode((1, "ab", datetime.date(2020, 1, 1), 2))
    assert codec.decode(good, plan) == (1, 2)
    bad_text = good.replace(b"ab", b"\xff\xfe")
    with pytest.raises(StorageError):
        codec.decode(bad_text)
    assert codec.decode(bad_text, plan) == (1, 2)
    # ... while a wrong tag, a length running past the end or a
    # trailing byte in the same places is refused by both
    for damaged in (
        good.replace(b"\x03\x02\x00\x00\x00ab", b"\x01\x02\x00\x00\x00ab"),
        good.replace(b"\x03\x02\x00\x00\x00ab", b"\x03\xff\x00\x00\x00ab"),
        good + b"\x00",
    ):
        with pytest.raises(StorageError):
            codec.decode(damaged, plan)


def test_shape_without_a_common_form_always_takes_the_generic_path():
    codec = RecordCodec()
    plan = DecodePlan([INT, None], (Ref(1),), lambda v: project_values(v, (Ref(1),)))
    assert codec.decode(codec.encode((1, (2, "x"))), plan) == ((2, "x"),)
    assert codec.fallbacks == 1
