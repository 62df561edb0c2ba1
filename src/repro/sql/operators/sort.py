"""Ordering operators."""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

from repro.sql.ast_nodes import OrderItem
from repro.sql.batch import ColumnBatch, concat, transpose
from repro.sql.expressions import compile_expr_batch
from repro.sql.operators.base import PhysicalOp
from repro.storage import config


class SortOp(PhysicalOp):
    """Materialize and sort the input by the ORDER BY items.

    NULLs sort first on ascending keys (a documented convention). In
    memory the sort permutes an index vector over the key columns, one
    stable pass per item, last item first, so mixed ascending/descending
    items compose; the rows are gathered once, in output order. When a
    spill manager is attached and every item runs one direction, the
    input instead goes through an external merge sort whose runs live
    in the verifiable storage (Section 5.4).
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
        self._fns = [compile_expr_batch(item.expr, child.output) for item in items]
        self._directions = [item.ascending for item in items]

    def batches(self) -> Iterator[ColumnBatch]:
        width = len(self.output)
        if self.spill is not None and len(set(self._directions)) == 1:
            return self._external(width)
        batch = concat(self.children[0].timed_batches(), width)
        order = _sort_order([fn(batch) for fn in self._fns], self._directions)
        return batch.take_chunks(order)

    def _external(self, width: int) -> Iterator[ColumnBatch]:
        """Spill-backed sort: each row carries its key values behind it
        through the runs, and loses them again on the way out."""
        from repro.sql.spill import external_sort

        fns = self._fns

        def keyed_rows():
            for batch in self.children[0].timed_batches():
                keys = zip(*[fn(batch) for fn in fns])
                yield from map(tuple.__add__, batch.rows, keys)

        def key(row):
            return tuple(map(_null_key, row[width:]))

        rows = external_sort(
            keyed_rows(), key, self.spill, reverse=not self._directions[0]
        )
        size = config.BATCH_ROWS
        while chunk := [row[:width] for _, row in zip(range(size), rows)]:
            yield transpose(chunk)

    def describe(self) -> str:
        return f"Sort({_describe_items(self.items)})"


class TopNOp(PhysicalOp):
    """Fused ORDER BY + LIMIT: keep only the top N rows.

    The operator holds at most N candidate rows plus one input batch:
    each batch is sorted together with the candidates (which stay in
    output order, ties in arrival order) and cut back to N. That is
    O(N) state instead of materializing the whole input — the planner
    substitutes this for Sort+Limit, which also keeps the intermediate
    state inside any enclave budget without spilling.
    """

    def __init__(self, child: PhysicalOp, items: list[OrderItem], limit: int):
        super().__init__(child.output, [child])
        self.items = items
        self.limit = limit
        self._fns = [compile_expr_batch(item.expr, child.output) for item in items]
        self._directions = [item.ascending for item in items]

    def batches(self) -> Iterator[ColumnBatch]:
        if self.limit <= 0:
            return
        width = len(self.output)
        top = None
        for batch in self.children[0].timed_batches():
            pool = batch if top is None else concat((top, batch), width)
            order = _sort_order([fn(pool) for fn in self._fns], self._directions)
            top = pool.take(order[: self.limit])
        if top is not None:
            yield top

    def describe(self) -> str:
        return f"TopN({self.limit}, by {_describe_items(self.items)})"


def _sort_order(keys: list[list], ascending: Sequence[bool]) -> list[int]:
    """The stable sort permutation of rows by key columns ``keys``.

    One stable pass per key, last key first, each in its own direction
    (a reversed stable sort keeps ties in order); NULL sorts below every
    value.
    """
    order = list(range(len(keys[0])))
    for values, up in zip(reversed(keys), reversed(ascending)):
        if None in values:
            values = list(map(_null_key, values))
        order.sort(key=values.__getitem__, reverse=not up)
    return order


def _describe_items(items: list[OrderItem]) -> str:
    return ", ".join(
        f"{item.expr!r} {'ASC' if item.ascending else 'DESC'}" for item in items
    )


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
