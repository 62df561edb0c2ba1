"""Leaf operators: the secure access methods (Section 5.2).

These are the only operators that touch untrusted memory. Every row
they emit has passed the storage layer's evidence checks (point proofs
and range-scan chain verification), so the operators above can trust
their inputs unconditionally.

Each access method — sequential scan, range scan and point lookup —
emits only the ``columns`` the planner found the statement reading
(None: every column of the table): its output schema is that narrow,
and the storage layer materialises nothing else from each record. The
evidence checks do not depend on the projection.

The two chain scans stream: each chunk of chain records the storage
layer has verified becomes one batch, so an operator above that stops
pulling (a LIMIT) stops the scan, and the evidence covers the verified
prefix it saw.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from repro.sql.batch import ColumnBatch
from repro.sql.expressions import RowSchema
from repro.sql.operators.base import PhysicalOp
from repro.sql.params import ParamMarker, resolve_maybe


def table_schema(
    table, binding: str, columns: Optional[Sequence[str]] = None
) -> RowSchema:
    names = table.schema.column_names if columns is None else columns
    return RowSchema([(binding, name) for name in names])


def _describe_columns(columns: Optional[Sequence[str]]) -> str:
    return "" if columns is None else f", cols=[{', '.join(columns)}]"


def _chain_order(binding: str, keys: Sequence[str], columns) -> list[tuple]:
    """The chain order a scan emitting ``columns`` can advertise: the
    longest prefix of its sort ``keys`` it emits."""
    order = []
    for key in keys:
        if columns is not None and key not in columns:
            break
        order.append((binding, key, True))
    return order


def _column_batches(chunks) -> Iterator[ColumnBatch]:
    for length, values in chunks:
        yield ColumnBatch(values, length)


class SeqScanOp(PhysicalOp):
    """Full verified sequential scan (a (⊥, ⊤) range scan, Example 5.4)."""

    is_scan = True

    def __init__(
        self, table, binding: str, columns: Optional[Sequence[str]] = None, chosen_over=None
    ):
        super().__init__(table_schema(table, binding, columns), [])
        self.table = table
        self.binding = binding
        self.columns = columns
        #: (column, estimated share) of the too-wide range this replaces
        self.chosen_over = chosen_over
        # the primary chain yields rows in primary-key order
        self.ordering = _chain_order(binding, [table.schema.primary_key], columns)

    def batches(self) -> Iterator[ColumnBatch]:
        # the storage layer fetches chain records through the batched
        # verified-read path at the same granularity the engine consumes
        return _column_batches(self.table.scan_chunks(columns=self.columns))

    def describe(self) -> str:
        columns = _describe_columns(self.columns)
        if self.chosen_over is not None:
            columns += ", over {} range ~{:.0%}".format(*self.chosen_over)
        return f"SeqScan({self.table.name} as {self.binding}{columns})"


class RangeScanOp(PhysicalOp):
    """Verified range scan over a chained column."""

    is_scan = True

    def __init__(
        self,
        table,
        binding: str,
        column: str,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = True,
        columns: Optional[Sequence[str]] = None,
    ):
        super().__init__(table_schema(table, binding, columns), [])
        self.table = table
        self.binding = binding
        self.column = column
        self.columns = columns
        self.lo, self.hi = lo, hi
        self.include_lo, self.include_hi = include_lo, include_hi
        # a chain scan walks its (key, nKey) chain: rows come back
        # ordered by the chained column (ties broken by primary key)
        self.ordering = _chain_order(
            binding, list(dict.fromkeys([column, table.schema.primary_key])), columns
        )

    def batches(self) -> Iterator[ColumnBatch]:
        # parameterized bounds resolve inside the execution's binding
        # scope; a NULL parameter can match nothing (SQL comparison
        # semantics), so the scan short-circuits to empty
        lo, hi = resolve_maybe(self.lo), resolve_maybe(self.hi)
        if (lo is None and isinstance(self.lo, ParamMarker)) or (
            hi is None and isinstance(self.hi, ParamMarker)
        ):
            return iter(())
        chunks = self.table.scan_chunks(
            self.column,
            lo,
            hi,
            self.include_lo,
            self.include_hi,
            columns=self.columns,
        )
        return _column_batches(chunks)

    def describe(self) -> str:
        lo_bracket = "[" if self.include_lo else "("
        hi_bracket = "]" if self.include_hi else ")"
        return (
            f"RangeScan({self.table.name} as {self.binding}, {self.column} in "
            f"{lo_bracket}{self.lo!r}, {self.hi!r}{hi_bracket}"
            f"{_describe_columns(self.columns)})"
        )


class PointLookupOp(PhysicalOp):
    """Verified primary-key index search (at most one row)."""

    is_scan = True

    def __init__(self, table, binding: str, key: Any, columns: Optional[Sequence[str]] = None):
        super().__init__(table_schema(table, binding, columns), [])
        self.table = table
        self.binding = binding
        self.key = key
        self.columns = columns

    def batches(self) -> Iterator[ColumnBatch]:
        key = resolve_maybe(self.key)
        if key is None:
            # either a NULL-bound parameter or a literal NULL key:
            # `pk = NULL` matches no row, and the verified get() path
            # must never be asked to prove a NULL key
            return
        row, _proof = self.table.get(key, self.columns)
        if row is not None:
            yield ColumnBatch([[value] for value in row], 1)

    def describe(self) -> str:
        return (
            f"IndexSearch({self.table.name} as {self.binding}, "
            f"{self.table.schema.primary_key} = {self.key!r}"
            f"{_describe_columns(self.columns)})"
        )
