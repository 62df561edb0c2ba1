"""Ordering operator."""

from __future__ import annotations

import functools
from typing import Iterator

from repro.sql.ast_nodes import OrderItem
from repro.sql.batch import ColumnBatch, batched
from repro.sql.expressions import compile_expr
from repro.sql.operators.base import PhysicalOp


class SortOp(PhysicalOp):
    """Materialize and sort the input by the ORDER BY items.

    NULLs sort first on ascending keys (a documented convention); mixed
    ascending/descending items are handled by composing per-key rank
    tuples (ascending) with negation-free reverse flags via multi-pass
    stable sorting in memory, or — when a spill manager is attached and
    the input exceeds the enclave budget — by an external merge sort
    whose runs live in the verifiable storage (Section 5.4).
    """

    def __init__(
        self,
        child: PhysicalOp,
        items: list[OrderItem],
        spill=None,
    ):
        super().__init__(child.output, [child])
        self.items = items
        self.spill = spill
        self._fns = [compile_expr(item.expr, child.output) for item in items]
        from repro.sql.ast_nodes import ColumnRef

        self.ordering = [
            (item.expr.qualifier, item.expr.name, item.ascending)
            for item in items
            if isinstance(item.expr, ColumnRef)
        ]

    def batches(self) -> Iterator[ColumnBatch]:
        source = (
            row
            for batch in self.children[0].timed_batches()
            for row in batch.rows
        )
        ordering = tuple(self.ordering)
        if self.spill is not None:
            return batched(self._external(source), self.batch_size, ordering)
        rows = list(source)
        # last key first: stable sorts compose right-to-left
        for item, fn in reversed(list(zip(self.items, self._fns))):
            rows.sort(
                key=lambda row: _null_key(fn(row)),
                reverse=not item.ascending,
            )
        return batched(rows, self.batch_size, ordering)

    def _external(self, source) -> Iterator[tuple]:
        """Spill-backed sort: one composite key, single merge pass.

        Mixed ASC/DESC needs a single total-order key; descending
        components are inverted where possible (numbers) and otherwise
        fall back to in-memory sorting for that pathological mix.
        """
        from repro.sql.spill import external_sort

        if all(item.ascending for item in self.items):
            fns = self._fns

            def key(row):
                return tuple(_null_key(fn(row)) for fn in fns)

            return external_sort(source, key, self.spill)
        if all(not item.ascending for item in self.items):
            fns = self._fns

            def key(row):
                return tuple(_null_key(fn(row)) for fn in fns)

            return external_sort(source, key, self.spill, reverse=True)
        # mixed directions: multi-pass stable in-memory sort
        rows = list(source)
        for item, fn in reversed(list(zip(self.items, self._fns))):
            rows.sort(
                key=lambda row: _null_key(fn(row)),
                reverse=not item.ascending,
            )
        return iter(rows)

    def describe(self) -> str:
        parts = [
            f"{item.expr!r} {'ASC' if item.ascending else 'DESC'}"
            for item in self.items
        ]
        return f"Sort({', '.join(parts)})"


class TopNOp(PhysicalOp):
    """Fused ORDER BY + LIMIT: keep only the top N rows via a heap.

    O(n log N) time and O(N) space instead of materializing and sorting
    the whole input — the planner substitutes this for Sort+Limit, which
    also keeps the intermediate state inside any enclave budget without
    spilling.
    """

    def __init__(self, child: PhysicalOp, items: list[OrderItem], limit: int):
        super().__init__(child.output, [child])
        self.items = items
        self.limit = limit
        self._fns = [compile_expr(item.expr, child.output) for item in items]
        self._directions = [item.ascending for item in items]

    def batches(self) -> Iterator[ColumnBatch]:
        if self.limit <= 0:
            return iter(())
        import heapq

        fns, directions = self._fns, self._directions

        def key(row):
            return _DirectedKey(
                tuple(_null_key(fn(row)) for fn in fns), directions
            )

        source = (
            row
            for batch in self.children[0].timed_batches()
            for row in batch.rows
        )
        top = heapq.nsmallest(self.limit, source, key=key)
        return batched(top, self.batch_size)

    def describe(self) -> str:
        parts = [
            f"{item.expr!r} {'ASC' if item.ascending else 'DESC'}"
            for item in self.items
        ]
        return f"TopN({self.limit}, by {', '.join(parts)})"


@functools.total_ordering
class _DirectedKey:
    """Composite sort key honouring per-component ASC/DESC directions."""

    __slots__ = ("values", "directions")

    def __init__(self, values: tuple, directions: list[bool]):
        self.values = values
        self.directions = directions

    def __eq__(self, other):
        return self.values == other.values

    def __lt__(self, other):
        for mine, theirs, ascending in zip(
            self.values, other.values, self.directions
        ):
            if mine == theirs:
                continue
            return mine < theirs if ascending else mine > theirs
        return False


@functools.total_ordering
class _NullFirst:
    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, _NullFirst)

    def __lt__(self, other):
        return not isinstance(other, _NullFirst)


_NULL_FIRST = _NullFirst()


def _null_key(value):
    return (0, _NULL_FIRST) if value is None else (1, value)
