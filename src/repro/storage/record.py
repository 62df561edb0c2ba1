"""Deterministic binary codec for stored records.

Every record is serialized to bytes before entering untrusted memory —
the PRF digests operate on those bytes, so encoding must be canonical
(one value, one byte string). The codec is self-describing (tag per
value), which keeps it independent of schemas and lets chain-key
sentinels and composite keys nest freely.

Supported values: None, int (64-bit), float, str, bool, datetime.date,
the ``⊥``/``⊤`` sentinels and tuples of the above (used for composite
secondary-chain keys).

Scans decode the same bytes through a :class:`DecodePlan`: a decoder
compiled once for one record *shape* (the tags a table's records
normally carry) and one *projection* (the values the caller reads). It
unpacks the fixed-width fields with precomputed ``struct`` runs, checks
every tag in one tuple compare, steps over unread TEXT by its length
prefix, and hands any record that deviates from the shape (NULLs,
``⊥``/``⊤``) to the generic decoder, which stays the canonical codec
and the only writer. The plan comes in two forms generated from the
same text: ``fast`` decodes one record to a tuple (point reads), and
``chunk`` decodes a whole chunk of records into one list per projected
value (scans).
"""

from __future__ import annotations

import datetime
import struct
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.catalog.types import BOTTOM, TOP
from repro.errors import StorageError

_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_TEXT = 3
_TAG_BOOL_FALSE = 4
_TAG_BOOL_TRUE = 5
_TAG_DATE = 6
_TAG_BOTTOM = 7
_TAG_TOP = 8
_TAG_TUPLE = 9

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

#: deepest tuple nesting the codec accepts, either way. Stored records
#: nest one level (composite chain keys) and spilled rows two; the
#: limit keeps a crafted payload from exhausting the interpreter stack.
MAX_NESTING = 16

#: what malformed bytes can raise below ``decode``: short reads, bad
#: UTF-8 (a ValueError) and DATE ordinals outside the calendar
_MALFORMED = (struct.error, IndexError, ValueError, OverflowError)

# ----------------------------------------------------------------------
# record shapes and projections (the compiled decoder's vocabulary)
# ----------------------------------------------------------------------
#: field kinds a shape may name; a TUPLE field is a tuple of these
INT, FLOAT, TEXT, DATE, BOOL = "int", "float", "text", "date", "bool"

#: kind -> (struct code of the 8-byte value, tag)
_FIXED = {
    INT: ("q", _TAG_INT),
    FLOAT: ("d", _TAG_FLOAT),
    DATE: ("q", _TAG_DATE),
}


class Ref(NamedTuple):
    """Address of one stored value: a field, or a member of a TUPLE field."""

    field: int
    member: Optional[int] = None


def project_values(values: tuple, template: tuple) -> tuple:
    """Evaluate a projection template over a generically decoded record.

    A template is a tuple of :class:`Ref` and nested templates. A
    sentinel (``⊥``/``⊤``/NULL) found where the shape has a TUPLE stands
    for each of its members, like ``ChainLayout.chain_value``.
    """
    out = []
    for item in template:
        if isinstance(item, Ref):
            value = values[item.field]
            if item.member is not None and type(value) is tuple:
                value = value[item.member]
            out.append(value)
        else:
            out.append(project_values(values, item))
    return tuple(out)


class DecodePlan:
    """One projection of one record shape, compiled and generic.

    ``fast(payload)`` returns the projected values, or None for any
    payload that is not exactly ``shape`` — it never raises and never
    answers differently from the generic decoder on the values it
    reads. ``chunk(payloads, miss)`` decodes many records in one
    generated loop into one list per projected value (a nested
    template at the top level gives one list per member), in payload
    order; a record ``fast`` would miss is appended from ``miss(payload)``
    instead, so a chunk holds exactly what ``fast``-or-generic answers
    record by record, and the first record the generic decoder refuses
    raises its error. ``project(values)`` produces the same projection
    from a generically decoded record and owns the field-count check.
    ``fields_skipped`` is how many stored values the compiled path
    leaves unmaterialised per record.
    """

    __slots__ = ("fast", "chunk", "project", "fields_skipped")

    def __init__(
        self,
        shape: Sequence,
        template: tuple,
        project: Callable[[tuple], tuple],
    ):
        self.fast, self.chunk, self.fields_skipped = _compile(shape, template)
        self.project = project


def _miss(payload: bytes) -> None:
    return None


def _compile(shape: Sequence, template: tuple):
    """Generate the straight-line decoder for ``shape`` and ``template``.

    ``shape`` names, per stored field, its kind, a tuple of kinds (a
    TUPLE field with exactly those members) or None (no common shape,
    also as a member: every record takes the generic path). The
    generated function reads each run of fixed-width fields — tag
    bytes, TUPLE counts and TEXT length prefixes included — with one
    ``Struct.unpack_from``, pads over unread 8-byte values, advances
    past TEXT by its length, and only then compares the field count,
    every tag and the final offset in one expression; nothing is
    returned before that passes, so a length taken from a mis-tagged
    field can only end in a miss. The chunk form wraps the same lines
    in a loop over payloads that appends to per-value lists.
    """
    env: dict[str, Any] = {"date": datetime.date.fromordinal, "malformed": _MALFORMED}
    # the chunk form's lists, each with the value's source on a miss
    columns = []
    for i, item in enumerate(template):
        if isinstance(item, Ref):
            columns.append((item, f"r[{i}]"))
        else:
            columns.extend((sub, f"r[{i}][{j}]") for j, sub in enumerate(item))
    lists = ", ".join(f"x{i}" for i in range(len(columns)))
    chunk_head = [
        "def chunk(ps, miss):",
        *(f" x{i} = []; a{i} = x{i}.append" for i in range(len(columns))),
        " for p in ps:",
    ]
    chunk_miss = ["  r = miss(p)", *(f"  a{i}({at})" for i, (_, at) in enumerate(columns))]
    chunk_tail = [f" return [{lists}]"]
    kinds = [k for kind in shape for k in (kind if isinstance(kind, tuple) else (kind,))]
    if None in kinds:
        exec("\n".join(chunk_head + chunk_miss + chunk_tail), env)  # noqa: S102
        return _miss, env["chunk"], 0
    wanted: set[tuple] = set()
    _collect(template, shape, wanted)
    body: list[str] = ["o = 0"]
    checks, expect = ["n"], [len(shape)]
    fmt, targets = ["<I"], ["n"]
    names: dict[tuple, str] = {}  # address read -> expression of its value
    dates: list[str] = []  # ordinal -> date conversions, after the checks
    leaves = 0

    def flush(step_over: str = "") -> None:
        run = struct.Struct("".join(fmt))
        name = f"unpack{len(env)}"
        env[name] = run.unpack_from
        body.append(f"{', '.join(targets)}, = {name}(p, o)")
        body.append(f"o += {run.size}{step_over}")
        fmt[:] = ["<"]
        targets.clear()

    def leaf(kind: str, address: tuple) -> None:
        nonlocal leaves
        i = leaves
        leaves += 1
        fmt.append("B")
        targets.append(f"t{i}")
        read = address in wanted
        if kind == BOOL:
            # the tag is the value: 4 | 1 == 5 | 1 == 5, nothing else is
            checks.append(f"t{i} | 1")
            expect.append(_TAG_BOOL_TRUE)
            if read:
                names[address] = f"t{i} == {_TAG_BOOL_TRUE}"
            return
        checks.append(f"t{i}")
        if kind == TEXT:
            expect.append(_TAG_TEXT)
            fmt.append("I")
            targets.append(f"l{i}")
            if read:
                flush()
                body.append(f"v{i} = p[o:o + l{i}].decode()")
                body.append(f"o += l{i}")
                names[address] = f"v{i}"
            else:
                flush(f" + l{i}")
            return
        code, tag = _FIXED[kind]
        expect.append(tag)
        if not read:
            fmt.append("8x")
            return
        fmt.append(code)
        targets.append(f"v{i}")
        names[address] = f"v{i}"
        if kind == DATE:
            dates.append(f"v{i} = date(v{i})")

    for field, kind in enumerate(shape):
        if isinstance(kind, tuple):
            fmt.append("BI")
            targets.extend((f"t{leaves}", f"c{leaves}"))
            checks.extend((f"t{leaves}", f"c{leaves}"))
            expect.extend((_TAG_TUPLE, len(kind)))
            leaves += 1
            for member, member_kind in enumerate(kind):
                leaf(member_kind, (field, member))
        else:
            leaf(kind, (field, None))
    if targets:
        flush()
    env["expect"] = tuple(expect)
    tags = f"({', '.join(checks)})"
    fast = [
        "def fast(p):",
        " try:",
        *(f"  {line}" for line in body),
        f"  if o != len(p) or {tags} != expect: return None",
        *(f"  {line}" for line in dates),
        f"  return {_render(template, shape, names)}",
        " except malformed:",
        "  return None",
    ]
    chunk = [
        *chunk_head,
        "  try:",
        *(f"   {line}" for line in body),
        f"   if o == len(p) and {tags} == expect:",
        *(f"    {line}" for line in dates),
        *(f"    a{i}({_item(item, shape, names)})" for i, (item, _) in enumerate(columns)),
        "    continue",
        "  except malformed:",
        "   pass",
        *chunk_miss,
        *chunk_tail,
    ]
    exec("\n".join(fast + chunk), env)  # noqa: S102 - source is built from shape kinds only
    return env["fast"], env["chunk"], len(kinds) - len(names)


def _addresses(ref: Ref, shape: Sequence) -> list[tuple]:
    """The (field, member) values a Ref denotes; a whole TUPLE is all of its."""
    kind = shape[ref.field]
    if ref.member is None and isinstance(kind, tuple):
        return [(ref.field, member) for member in range(len(kind))]
    return [tuple(ref)]


def _collect(template: tuple, shape: Sequence, wanted: set) -> None:
    """The addresses a template reads."""
    for item in template:
        if isinstance(item, Ref):
            wanted.update(_addresses(item, shape))
        else:
            _collect(item, shape, wanted)


def _render(template: tuple, shape: Sequence, names: dict) -> str:
    """Source of the tuple expression a template denotes."""
    return "(" + "".join(f"{_item(item, shape, names)}, " for item in template) + ")"


def _item(item, shape: Sequence, names: dict) -> str:
    """Source of one template item: a nested template or a Ref's value."""
    if not isinstance(item, Ref):
        return _render(item, shape, names)
    if item.member is None and isinstance(shape[item.field], tuple):
        return _render(tuple(Ref(*address) for address in _addresses(item, shape)), shape, names)
    return names[tuple(item)]


class RecordCodec:
    """Encode/decode tuples of SQL values to canonical bytes."""

    def __init__(self):
        #: records a plan's compiled decoder handed to the generic one.
        #: A plain int: a table's scans decode with a plan only under
        #: the table lock (its lock-free point reads use another codec).
        self.fallbacks = 0

    def encode(self, values: tuple) -> bytes:
        """Serialize a record; raises StorageError on unencodable values."""
        out = bytearray()
        out += _U32.pack(len(values))
        try:
            for value in values:
                self._encode_value(out, value, 1)
        except struct.error as exc:  # an int beyond 64 bits
            raise StorageError(f"cannot encode record: {exc}") from exc
        return bytes(out)

    def decode(self, payload: bytes, plan: Optional[DecodePlan] = None) -> tuple:
        """Deserialize a record; raises StorageError on malformed bytes.

        With a ``plan`` the result is the plan's projection instead of
        the full tuple of stored values: the compiled decoder answers
        every record of the plan's shape, the generic one the rest.
        """
        if plan is not None:
            projected = plan.fast(payload)
            if projected is not None:
                return projected
            self.fallbacks += 1
        try:
            count = _U32.unpack_from(payload, 0)[0]
            offset = 4
            values = []
            for _ in range(count):
                value, offset = self._decode_value(payload, offset, 1)
                values.append(value)
            if offset != len(payload):
                raise StorageError("trailing bytes after record payload")
        except _MALFORMED as exc:
            raise StorageError(f"malformed record payload: {exc}") from exc
        return tuple(values) if plan is None else plan.project(tuple(values))

    # ------------------------------------------------------------------
    # value encoding
    # ------------------------------------------------------------------
    def _encode_value(self, out: bytearray, value: Any, depth: int) -> None:
        if value is None:
            out.append(_TAG_NULL)
        elif value is BOTTOM:
            out.append(_TAG_BOTTOM)
        elif value is TOP:
            out.append(_TAG_TOP)
        elif isinstance(value, bool):
            out.append(_TAG_BOOL_TRUE if value else _TAG_BOOL_FALSE)
        elif isinstance(value, int):
            out.append(_TAG_INT)
            out += _I64.pack(value)
        elif isinstance(value, float):
            out.append(_TAG_FLOAT)
            out += _F64.pack(value)
        elif isinstance(value, str):
            encoded = value.encode("utf-8")
            out.append(_TAG_TEXT)
            out += _U32.pack(len(encoded))
            out += encoded
        elif isinstance(value, datetime.date):
            out.append(_TAG_DATE)
            out += _I64.pack(value.toordinal())
        elif isinstance(value, tuple):
            if depth >= MAX_NESTING:
                raise StorageError(f"tuples nest deeper than {MAX_NESTING}")
            out.append(_TAG_TUPLE)
            out += _U32.pack(len(value))
            for item in value:
                self._encode_value(out, item, depth + 1)
        else:
            raise StorageError(f"cannot encode value of type {type(value).__name__}")

    def _decode_value(self, payload: bytes, offset: int, depth: int) -> tuple[Any, int]:
        tag = payload[offset]
        offset += 1
        if tag == _TAG_NULL:
            return None, offset
        if tag == _TAG_BOTTOM:
            return BOTTOM, offset
        if tag == _TAG_TOP:
            return TOP, offset
        if tag == _TAG_BOOL_FALSE:
            return False, offset
        if tag == _TAG_BOOL_TRUE:
            return True, offset
        if tag == _TAG_INT:
            return _I64.unpack_from(payload, offset)[0], offset + 8
        if tag == _TAG_FLOAT:
            return _F64.unpack_from(payload, offset)[0], offset + 8
        if tag == _TAG_TEXT:
            length = _U32.unpack_from(payload, offset)[0]
            offset += 4
            end = offset + length
            if end > len(payload):
                raise StorageError("text value overruns payload")
            return payload[offset:end].decode("utf-8"), end
        if tag == _TAG_DATE:
            ordinal = _I64.unpack_from(payload, offset)[0]
            return datetime.date.fromordinal(ordinal), offset + 8
        if tag == _TAG_TUPLE:
            if depth >= MAX_NESTING:
                raise StorageError(f"tuples nest deeper than {MAX_NESTING}")
            count = _U32.unpack_from(payload, offset)[0]
            offset += 4
            items = []
            for _ in range(count):
                item, offset = self._decode_value(payload, offset, depth + 1)
                items.append(item)
            return tuple(items), offset
        raise StorageError(f"unknown value tag {tag}")
