"""Join operators.

The paper's evaluation exercises two plans for TPC-H Q19 — MergeJoin and
NestedLoopJoin with a materialized inner (Section 6.3) — and Example 5.4
runs a Join whose inner side is pulled through IndexSearch. All three are
here, plus a hash join the optimizer may pick for equi-joins without a
usable inner index.

Join conditions are split by the planner into equi-key pairs
(left-expr = right-expr) plus a residual predicate evaluated on the
combined row. All joins consume and emit :class:`ColumnBatch` streams; the
match logic itself stays row-wise (its cost is dominated by the data
movement the batches already amortize), with output rows flushed in
batches of ``batch_size``.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Iterator, Optional

from repro.obs.trace_context import current_trace
from repro.sql.ast_nodes import Expr
from repro.sql.batch import ColumnBatch, batched
from repro.sql.expressions import compile_expr, compile_predicate
from repro.sql.operators.base import PhysicalOp
from repro.sql.operators.scan import table_schema


class _JoinBase(PhysicalOp):
    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        left_keys: list[Expr],
        right_keys: list[Expr],
        residual: Optional[Expr],
        spill=None,
        left_outer: bool = False,
    ):
        super().__init__(left.output.concat(right.output), [left, right])
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.spill = spill
        self.left_outer = left_outer
        self._null_right = (None,) * len(right.output)
        self._left_key_fns = [compile_expr(e, left.output) for e in left_keys]
        self._right_key_fns = [compile_expr(e, right.output) for e in right_keys]
        self._residual_fn = (
            compile_predicate(residual, self.output) if residual is not None else None
        )

    def _emit(self, left_row: tuple, right_row: tuple) -> Optional[tuple]:
        combined = left_row + right_row
        if self._residual_fn is not None and not self._residual_fn(combined):
            return None
        return combined

    def _left_key(self, row: tuple) -> tuple:
        return tuple(fn(row) for fn in self._left_key_fns)

    def _right_key(self, row: tuple) -> tuple:
        return tuple(fn(row) for fn in self._right_key_fns)


class NestedLoopJoinOp(_JoinBase):
    """Nested loops with a materialized inner (right) side.

    With no equi-keys this is a general theta join; with keys they are
    simply folded into the residual check. With a spill manager, the
    materialized inner overflows into the verifiable storage when it
    exceeds the enclave budget — the paper's Q19 plan "materializes the
    Select result on the inner loop" and Section 5.4 proposes exactly
    this storage reuse for oversized intermediate state.
    """

    def batches(self) -> Iterator[ColumnBatch]:
        buffer = None
        if self.spill is not None:
            buffer = self.spill.buffer("nl-inner")
            # the spill boundary is row-major: each columnar batch
            # materializes its row tuples exactly once, here
            for inner_batch in self.children[1].timed_batches():
                buffer.extend(inner_batch.to_rows())
            inner = buffer
        else:
            inner = [
                row
                for batch in self.children[1].timed_batches()
                for row in batch.to_rows()
            ]
        try:
            out: list[tuple] = []
            for batch in self.children[0].timed_batches():
                for left_row in batch.rows:
                    lkey = self._left_key(left_row) if self.left_keys else None
                    matched = False
                    for right_row in inner:
                        if lkey is not None and lkey != self._right_key(right_row):
                            continue
                        combined = self._emit(left_row, right_row)
                        if combined is not None:
                            matched = True
                            out.append(combined)
                    if self.left_outer and not matched:
                        out.append(left_row + self._null_right)
                    if len(out) >= self.batch_size:
                        yield ColumnBatch.from_rows(out)
                        out = []
            if out:
                yield ColumnBatch.from_rows(out)
        finally:
            if buffer is not None:
                buffer.close()

    def describe(self) -> str:
        return f"NestedLoopJoin(keys={list(zip(self.left_keys, self.right_keys))})"


class MergeJoinOp(_JoinBase):
    """Sort-merge join on the equi-key columns.

    Sorts both inputs (the "larger intermediate state" the paper notes
    for the merge plan of Q19) — externally through spill runs when a
    spill manager is attached — then merges group-wise, handling
    duplicate keys on both sides.
    """

    def batches(self) -> Iterator[ColumnBatch]:
        if not self.left_keys:
            raise ValueError("MergeJoin requires equi-join keys")
        return batched(self._merge(), self.batch_size)

    def _merge(self) -> Iterator[tuple]:
        left_sorted = self._sorted_side(0, self._left_key)
        right_sorted = self._sorted_side(1, self._right_key)
        left_groups = itertools.groupby(left_sorted, key=self._left_key)
        right_groups = itertools.groupby(right_sorted, key=self._right_key)
        left_entry = next(left_groups, None)
        right_entry = next(right_groups, None)
        while left_entry is not None and right_entry is not None:
            lkey, left_group = left_entry
            rkey, right_group = right_entry
            if lkey < rkey:
                left_entry = next(left_groups, None)
            elif lkey > rkey:
                right_entry = next(right_groups, None)
            else:
                right_rows = list(right_group)  # duplicate group, re-scanned
                for left_row in left_group:
                    for right_row in right_rows:
                        combined = self._emit(left_row, right_row)
                        if combined is not None:
                            yield combined
                left_entry = next(left_groups, None)
                right_entry = next(right_groups, None)

    def _sorted_side(self, index: int, key) -> Iterator[tuple]:
        # rows with NULL join keys can never match; dropping them before
        # the sort also keeps the sort keys totally ordered
        source = (
            row
            for batch in self.children[index].timed_batches()
            for row in batch.rows
            if None not in key(row)
        )
        if self.spill is not None:
            from repro.sql.spill import external_sort

            return external_sort(source, key, self.spill)
        return iter(sorted(source, key=key))

    def describe(self) -> str:
        return f"MergeJoin(keys={list(zip(self.left_keys, self.right_keys))})"


class HashJoinOp(_JoinBase):
    """Classic build/probe hash join on the equi-keys (build = right)."""

    def batches(self) -> Iterator[ColumnBatch]:
        if not self.left_keys:
            raise ValueError("HashJoin requires equi-join keys")
        build: dict[tuple, list[tuple]] = {}
        for batch in self.children[1].timed_batches():
            for right_row in batch.rows:
                build.setdefault(self._right_key(right_row), []).append(right_row)
        out: list[tuple] = []
        for batch in self.children[0].timed_batches():
            for left_row in batch.rows:
                matched = False
                for right_row in build.get(self._left_key(left_row), ()):
                    combined = self._emit(left_row, right_row)
                    if combined is not None:
                        matched = True
                        out.append(combined)
                if self.left_outer and not matched:
                    out.append(left_row + self._null_right)
                if len(out) >= self.batch_size:
                    yield ColumnBatch.from_rows(out)
                    out = []
        if out:
            yield ColumnBatch.from_rows(out)

    def describe(self) -> str:
        outer = ", left-outer" if self.left_outer else ""
        return (
            f"HashJoin(keys={list(zip(self.left_keys, self.right_keys))}"
            f"{outer})"
        )


class IndexNestedLoopJoinOp(PhysicalOp):
    """Join pulling inner rows through verified IndexSearch (Example 5.4).

    The inner side must be a base table whose primary key equals the
    outer join key. Each inner lookup is a verified point access; under
    a run ledger its time is booked separately (``inner_seconds``) so
    the Figure 12 split can attribute it to scan work. Lookups run one
    batch of outer rows at a time, emitting one output batch per input
    batch.
    """

    def __init__(
        self,
        left: PhysicalOp,
        inner_table,
        inner_binding: str,
        left_key: Expr,
        residual: Optional[Expr],
    ):
        inner_schema = table_schema(inner_table, inner_binding)
        super().__init__(left.output.concat(inner_schema), [left])
        self.inner_table = inner_table
        self.inner_binding = inner_binding
        self.left_key = left_key
        self.residual = residual
        self._left_key_fn = compile_expr(left_key, left.output)
        self._residual_fn = (
            compile_predicate(residual, self.output) if residual is not None else None
        )

    is_scan = False  # inner lookups are booked to the frame's inner_seconds

    def batches(self) -> Iterator[ColumnBatch]:
        trace = current_trace()
        for batch in self.children[0].timed_batches():
            out: list[tuple] = []
            for left_row in batch.rows:
                key = self._left_key_fn(left_row)
                if key is None:
                    continue
                if trace is None:
                    inner_row, _proof = self.inner_table.get(key)
                else:
                    # inside this operator's lap: the top frame is its own
                    start = perf_counter()
                    inner_row, _proof = self.inner_table.get(key)
                    trace.top.inner_seconds += perf_counter() - start
                if inner_row is None:
                    continue
                combined = left_row + inner_row
                if self._residual_fn is not None and not self._residual_fn(combined):
                    continue
                out.append(combined)
            if out:
                yield ColumnBatch.from_rows(out)

    def describe(self) -> str:
        return (
            f"IndexNLJoin(inner={self.inner_table.name} as "
            f"{self.inner_binding}, key={self.left_key!r})"
        )
