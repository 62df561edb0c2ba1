"""Key-chain construction and the access-method proofs (Section 5.2).

Definition 4.2 extends every stored record with its column value's
successor: ``⟨key, nKey, data⟩``. Definition 5.2 generalizes this to one
``(key, nKey)`` pair per chained column. This module holds:

* the *stored-record* layout — how a user row plus its chain state maps
  to the tuple the codec serializes;
* composite-key construction for secondary chains (secondary values may
  repeat, so their chain keys are ``(value, primary_key)`` pairs, which
  are unique and order correctly; a documented refinement of the paper's
  presentation);
* the proof checks: point evidence (present / absent) and range-scan
  chain contiguity;
* the scans' decode plans: the shape a stored record normally has and,
  per scanned chain and projected columns, which of its values a scan
  reads — what :mod:`repro.storage.record` compiles its decoders from.

Stored layout (all values in one flat tuple)::

    (sentinel_of, k_0, nk_0, k_1, nk_1, ..., k_{m-1}, nk_{m-1}, d_1..d_j)

``sentinel_of`` is -1 for data records, or the chain id for that chain's
``⊥`` head sentinel (Figure 6 shows one sentinel row per chain, with the
other chains' fields null). ``d_*`` are the non-chain columns in schema
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.catalog.schema import Schema
from repro.catalog.types import (
    BOTTOM,
    TOP,
    BooleanType,
    DateType,
    DecimalType,
    FloatType,
    IntegerType,
    TextType,
)
from repro.errors import CatalogError, ProofError
from repro.storage.record import (
    BOOL,
    DATE,
    FLOAT,
    INT,
    TEXT,
    DecodePlan,
    Ref,
    project_values,
)

DATA_RECORD = -1

#: the one tag a non-NULL value of each column type is stored under;
#: types missing here (opaque spilled tuples) have no common shape
_KINDS = {
    IntegerType: INT,
    DecimalType: INT,
    FloatType: FLOAT,
    TextType: TEXT,
    DateType: DATE,
    BooleanType: BOOL,
}

#: scan plans memoised per layout before the memo starts over — far
#: above what one table's statements need, and a ceiling on what a
#: client cycling through projections can make the enclave hold
_MAX_SCAN_PLANS = 64


@dataclass
class StoredRecord:
    """Decoded stored tuple with structured accessors."""

    sentinel_of: int
    chain_keys: list[Any]  # k_c per chain
    chain_nexts: list[Any]  # nk_c per chain
    data_fields: tuple

    @property
    def is_sentinel(self) -> bool:
        return self.sentinel_of != DATA_RECORD

    def key(self, chain_id: int) -> Any:
        return self.chain_keys[chain_id]

    def next_key(self, chain_id: int) -> Any:
        return self.chain_nexts[chain_id]


class ChainLayout:
    """Maps user rows to/from the chained stored layout for one schema."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.chains = schema.chains
        self.n_chains = len(self.chains)
        self._chain_col_idx = [schema.column_index(c) for c in self.chains]
        chain_set = set(self._chain_col_idx)
        self._data_col_idx = [
            i for i in range(len(schema.columns)) if i not in chain_set
        ]
        self.pk_index = schema.primary_key_index
        # The shape a data record has unless a value is NULL or a
        # successor is ⊤, and where each column's value sits in it.
        kinds = [_KINDS.get(type(column.type)) for column in schema.columns]
        pk_kind = kinds[self.pk_index]
        self._shape: list = [INT]
        self._column_refs: list = [None] * len(kinds)
        for chain_id, col_idx in enumerate(self._chain_col_idx):
            at = len(self._shape)
            if chain_id == 0:
                key_kind = pk_kind
                self._column_refs[col_idx] = Ref(at)
            else:
                key_kind = (kinds[col_idx], pk_kind)
                self._column_refs[col_idx] = Ref(at, 0)
            self._shape += [key_kind, key_kind]
        for col_idx in self._data_col_idx:
            self._column_refs[col_idx] = Ref(len(self._shape))
            self._shape.append(kinds[col_idx])
        self._scan_plans: dict[tuple, DecodePlan] = {}

    @property
    def data_column_indexes(self) -> list[int]:
        """Schema positions of the non-chain (payload) columns."""
        return list(self._data_col_idx)

    # ------------------------------------------------------------------
    # chain keys
    # ------------------------------------------------------------------
    def chain_key(self, chain_id: int, row: tuple) -> Any:
        """The chain key of ``row`` on chain ``chain_id``.

        Chain 0 is the primary key itself; secondary chains use
        ``(value, primary_key)`` composites to stay unique.
        """
        value = row[self._chain_col_idx[chain_id]]
        if value is None:
            raise CatalogError(
                f"chained column {self.chains[chain_id]!r} cannot be NULL"
            )
        if chain_id == 0:
            return value
        return (value, row[self.pk_index])

    @staticmethod
    def chain_value(chain_id: int, chain_key: Any) -> Any:
        """Extract the column value back out of a chain key."""
        if chain_key is BOTTOM or chain_key is TOP:
            return chain_key
        return chain_key if chain_id == 0 else chain_key[0]

    @staticmethod
    def low_bound(chain_id: int, value: Any) -> Any:
        """Smallest possible chain key with the given column value."""
        return value if chain_id == 0 else (value, BOTTOM)

    @staticmethod
    def high_bound(chain_id: int, value: Any) -> Any:
        """Largest possible chain key with the given column value."""
        return value if chain_id == 0 else (value, TOP)

    # ------------------------------------------------------------------
    # stored-record construction
    # ------------------------------------------------------------------
    def stored_from_row(self, row: tuple, nexts: list[Any]) -> StoredRecord:
        """Build a data record's stored form given its chain successors."""
        keys = [self.chain_key(c, row) for c in range(self.n_chains)]
        data = tuple(row[i] for i in self._data_col_idx)
        return StoredRecord(DATA_RECORD, keys, list(nexts), data)

    def sentinel(self, chain_id: int, first_key: Any = TOP) -> StoredRecord:
        """The ``⊥`` head sentinel of one chain (other chains null)."""
        keys: list[Any] = [None] * self.n_chains
        nexts: list[Any] = [None] * self.n_chains
        keys[chain_id] = BOTTOM
        nexts[chain_id] = first_key
        data = tuple(None for _ in self._data_col_idx)
        return StoredRecord(chain_id, keys, nexts, data)

    def row_from_stored(self, stored: StoredRecord) -> tuple:
        """Reassemble the user row from a data record's stored form."""
        if stored.is_sentinel:
            raise ProofError("sentinel records carry no user row")
        row: list[Any] = [None] * len(self.schema.columns)
        for chain_id, col_idx in enumerate(self._chain_col_idx):
            row[col_idx] = self.chain_value(chain_id, stored.chain_keys[chain_id])
        for field_pos, col_idx in enumerate(self._data_col_idx):
            row[col_idx] = stored.data_fields[field_pos]
        return tuple(row)

    # ------------------------------------------------------------------
    # (de)serialization to codec tuples
    # ------------------------------------------------------------------
    def to_tuple(self, stored: StoredRecord) -> tuple:
        flat: list[Any] = [stored.sentinel_of]
        for key, nkey in zip(stored.chain_keys, stored.chain_nexts):
            flat.append(key)
            flat.append(nkey)
        flat.extend(stored.data_fields)
        return tuple(flat)

    def from_tuple(self, flat: tuple) -> StoredRecord:
        _check_arity(flat, len(self._shape))
        sentinel_of = flat[0]
        keys = list(flat[1 : 1 + 2 * self.n_chains : 2])
        nexts = list(flat[2 : 2 + 2 * self.n_chains : 2])
        data = tuple(flat[1 + 2 * self.n_chains :])
        return StoredRecord(sentinel_of, keys, nexts, data)

    # ------------------------------------------------------------------
    # scan decoding
    # ------------------------------------------------------------------
    def scan_plan(self, chain_id: int, columns=None) -> DecodePlan:
        """How a scan of ``chain_id`` reading ``columns`` decodes a record.

        The plan projects a stored record to ``(sentinel_of, key, nKey,
        row)``: the scanned chain's own evidence fields, whole, plus the
        named columns' values in the order given (None: every column,
        in schema order). Plans are memoised here, so they live and die
        with the table's layout.
        """
        memo_key = (chain_id, None if columns is None else tuple(columns))
        plan = self._scan_plans.get(memo_key)
        if plan is None:
            if columns is None:
                refs = tuple(self._column_refs)
            else:
                refs = tuple(
                    self._column_refs[self.schema.column_index(name)]
                    for name in columns
                )
            key_at = 1 + 2 * chain_id
            template = (Ref(0), Ref(key_at), Ref(key_at + 1), refs)
            n_fields = len(self._shape)

            def project(flat: tuple) -> tuple:
                _check_arity(flat, n_fields)
                return project_values(flat, template)

            plan = DecodePlan(self._shape, template, project)
            if len(self._scan_plans) >= _MAX_SCAN_PLANS:
                self._scan_plans.clear()
            self._scan_plans[memo_key] = plan
        return plan


def _check_arity(flat: tuple, expected: int) -> None:
    if len(flat) != expected:
        raise ProofError(
            f"stored record has {len(flat)} fields, expected {expected}"
        )


# ----------------------------------------------------------------------
# proof objects and checks
# ----------------------------------------------------------------------
@dataclass
class PointProof:
    """Evidence for a point lookup: one record proves presence or absence.

    ``⟨key, nKey⟩`` with ``key == target`` proves presence;
    ``key < target < nKey`` proves absence (Section 4.2, Example 4.3).
    """

    target: Any
    key: Any
    next_key: Any
    found: bool

    def check(self) -> None:
        if self.key is None:
            raise ProofError("index returned a record outside the primary chain")
        if self.found:
            if self.key != self.target:
                raise ProofError(
                    f"presence evidence key {self.key!r} != target {self.target!r}"
                )
            return
        if not (self.key < self.target < self.next_key):
            raise ProofError(
                f"absence evidence ⟨{self.key!r}, {self.next_key!r}⟩ does not "
                f"cover target {self.target!r}"
            )


@dataclass
class RangeProof:
    """Evidence summary for a range scan (Figure 5's three conditions).

    ``low`` / ``high`` are *chain-key* bounds the evidence must cover.
    With an inclusive right end, completeness needs the last record's
    nKey strictly past ``high`` (an nKey equal to ``high`` would mean an
    unread matching record); with an exclusive right end, reaching
    ``high`` itself suffices. ``⊤`` always closes the right boundary.
    """

    low: Any  # requested low chain-key bound
    high: Any  # requested high chain-key bound
    right_inclusive: bool = True
    first_key: Any = None  # key of the first (boundary) record
    last_next_key: Any = None  # nKey of the last record read
    links_checked: int = 0
    records_read: int = 0

    def check_left(self) -> None:
        """Condition 1: the first record's key is <= the left end."""
        if self.first_key is None:
            raise ProofError("range scan produced no boundary evidence")
        if not self.first_key <= self.low:
            raise ProofError(
                f"left boundary not covered: first key {self.first_key!r} "
                f"> low bound {self.low!r}"
            )

    def check_right(self) -> None:
        """Condition 2: the last record's nKey passes the right end."""
        if self.last_next_key is None:
            raise ProofError("range scan produced no right-boundary evidence")
        nk = self.last_next_key
        if nk is TOP:
            return
        covered = nk > self.high if self.right_inclusive else nk >= self.high
        if not covered:
            raise ProofError(
                f"right boundary not covered: last nKey {nk!r} does not pass "
                f"high bound {self.high!r}"
            )

    def check_link(self, expected_key: Any, observed_key: Any) -> None:
        """Condition 3: each record's key equals its predecessor's nKey."""
        if observed_key != expected_key:
            raise ProofError(
                f"key chain broken: expected key {expected_key!r}, "
                f"read {observed_key!r} (omission or fabrication)"
            )
        self.links_checked += 1
