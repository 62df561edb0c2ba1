"""Join operators.

The paper's evaluation exercises two plans for TPC-H Q19 — MergeJoin and
NestedLoopJoin with a materialized inner (Section 6.3) — and Example 5.4
runs a Join whose inner side is pulled through IndexSearch. All three are
here, plus a hash join the optimizer may pick for equi-joins without a
usable inner index.

Join conditions are split by the planner into equi-key pairs
(left-expr = right-expr) plus a residual predicate evaluated on the
joined row. Every join is columnar: key expressions are evaluated as
whole columns, the match phase collects (left, right) position pairs,
and the joined batch is gathered once from those positions; the
residual is a batch predicate whose mask compacts it. A key that
contains NULL equals nothing (SQL comparison semantics): it is never
built, never probed and never merged, so under LEFT OUTER its row comes
out NULL-extended.
"""

from __future__ import annotations

from itertools import compress, groupby, islice
from time import perf_counter
from typing import Iterator, Optional

from repro.obs.trace_context import current_trace
from repro.sql.ast_nodes import Expr
from repro.sql.batch import ColumnBatch, concat, transpose
from repro.sql.expressions import compile_expr_batch, compile_predicate_batch
from repro.sql.operators.base import PhysicalOp
from repro.sql.operators.scan import table_schema
from repro.storage import config


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
        self._left_key_fns = [compile_expr_batch(e, left.output) for e in left_keys]
        self._right_key_fns = [compile_expr_batch(e, right.output) for e in right_keys]
        self._residual_fn = (
            compile_predicate_batch(residual, self.output)
            if residual is not None
            else None
        )

    def _side(self, index: int) -> ColumnBatch:
        """One input, drained into a single batch."""
        child = self.children[index]
        return concat(child.timed_batches(), len(child.output))

    def _gather(
        self, left: ColumnBatch, lpos: list[int], right: ColumnBatch
    ) -> ColumnBatch:
        """The joined rows of ``left``'s rows at ``lpos`` with ``right``'s
        rows, pairwise, in that order, that the residual accepts.

        Under LEFT OUTER, ``lpos`` ascends, and every row of ``left``
        left without a pair comes out NULL-extended in its place.
        """
        joined = ColumnBatch(left.take(lpos).columns + right.columns, len(lpos))
        if self._residual_fn is not None and lpos:
            mask = self._residual_fn(joined)
            if not all(mask):
                joined = joined.take_mask(mask)
                lpos = list(compress(lpos, mask))
        if not self.left_outer:
            return joined
        paired = set(lpos)
        if len(paired) == len(left):
            return joined
        unpaired = [i for i in range(len(left)) if i not in paired]
        nulls = [None] * len(unpaired)
        extended = ColumnBatch(
            left.take(unpaired).columns + [nulls] * len(right.columns), len(unpaired)
        )
        both = concat((joined, extended), len(joined.columns))
        at = lpos + unpaired
        return both.take(sorted(range(len(at)), key=at.__getitem__))


def _keys(fns: list, batch: ColumnBatch) -> list[tuple]:
    """One key tuple per row of ``batch``."""
    return list(zip(*[fn(batch) for fn in fns]))


class NestedLoopJoinOp(_JoinBase):
    """Nested loops with a materialized inner (right) side.

    With no equi-keys this is a general theta join; with keys each
    outer row is compared against every inner key. With a spill manager,
    the materialized inner overflows into the verifiable storage when it
    exceeds the enclave budget — the paper's Q19 plan "materializes the
    Select result on the inner loop" and Section 5.4 proposes exactly
    this storage reuse for oversized intermediate state. A spilled inner
    is read back once per outer batch, a chunk at a time.
    """

    def batches(self) -> Iterator[ColumnBatch]:
        buffer = None
        if self.spill is not None:
            # the spill boundary is row-major
            buffer = self.spill.buffer("nl-inner")
            for inner_batch in self.children[1].timed_batches():
                buffer.extend(inner_batch.rows)
        else:
            inner = self._side(1)
            parts = [(inner, _keys(self._right_key_fns, inner))]
        try:
            for batch in self.children[0].timed_batches():
                if buffer is not None:
                    parts = self._read_back(buffer)
                lkeys = _keys(self._left_key_fns, batch)
                lpos: list[int] = []
                pieces = []
                for chunk, rkeys in parts:
                    at, rpos = self._pairs(len(batch), lkeys, len(chunk), rkeys)
                    lpos += at
                    pieces.append(chunk.take(rpos))
                if len(pieces) == 1:
                    (right,) = pieces
                else:
                    # pairs came chunk by chunk: back to outer-row order
                    order = sorted(range(len(lpos)), key=lpos.__getitem__)
                    lpos = [lpos[k] for k in order]
                    right = concat(pieces, len(self.children[1].output)).take(order)
                joined = self._gather(batch, lpos, right)
                if joined:
                    yield joined
        finally:
            if buffer is not None:
                buffer.close()

    def _read_back(self, buffer) -> Iterator[tuple[ColumnBatch, list[tuple]]]:
        rows = iter(buffer)
        while chunk := list(islice(rows, config.BATCH_ROWS)):
            inner = transpose(chunk)
            yield inner, _keys(self._right_key_fns, inner)

    def _pairs(self, n, lkeys, m, rkeys) -> tuple[list[int], list[int]]:
        """(left, right) positions of every matching pair, left-major."""
        if not self.left_keys:
            return [i for i in range(n) for _ in range(m)], list(range(m)) * n
        lpos: list[int] = []
        rpos: list[int] = []
        for i, lkey in enumerate(lkeys):
            if None in lkey:
                continue
            matches = [j for j, rkey in enumerate(rkeys) if rkey == lkey]
            lpos += [i] * len(matches)
            rpos += matches
        return lpos, rpos

    def describe(self) -> str:
        return f"NestedLoopJoin(keys={list(zip(self.left_keys, self.right_keys))})"


class MergeJoinOp(_JoinBase):
    """Sort-merge join on the equi-key columns.

    Sorts both inputs (the "larger intermediate state" the paper notes
    for the merge plan of Q19) — externally through spill runs when a
    spill manager is attached — then merges run by run: each pair of
    equal-key runs contributes every pairing of their rows, as position
    pairs gathered once per output batch.
    """

    def batches(self) -> Iterator[ColumnBatch]:
        if not self.left_keys:
            raise ValueError("MergeJoin requires equi-join keys")
        lefts = self._runs(0, self._left_key_fns)
        rights = self._runs(1, self._right_key_fns)
        # [left batch, right batch, left positions, right positions]
        pending: list[list] = []
        pairs = 0
        left_entry = next(lefts, None)
        right_entry = next(rights, None)
        while left_entry is not None and right_entry is not None:
            lkey, left, left_run = left_entry
            rkey, right, right_run = right_entry
            if lkey < rkey:
                left_entry = next(lefts, None)
            elif lkey > rkey:
                right_entry = next(rights, None)
            else:
                if not (pending and pending[-1][0] is left and pending[-1][1] is right):
                    pending.append([left, right, [], []])
                segment = pending[-1]
                segment[2] += [i for i in left_run for _ in right_run]
                segment[3] += list(right_run) * len(left_run)
                pairs += len(left_run) * len(right_run)
                if pairs >= config.BATCH_ROWS:
                    yield from self._flush(pending)
                    pending, pairs = [], 0
                left_entry = next(lefts, None)
                right_entry = next(rights, None)
        yield from self._flush(pending)

    def _flush(self, pending: list[list]) -> Iterator[ColumnBatch]:
        pieces = [
            self._gather(left, lpos, right.take(rpos))
            for left, right, lpos, rpos in pending
        ]
        joined = pieces[0] if len(pieces) == 1 else concat(pieces, len(self.output))
        if joined:
            yield joined

    def _runs(self, index: int, fns: list) -> Iterator[tuple]:
        """One input in key order, a run of equal keys at a time, as
        (key, batch, the run's positions in that batch); rows with a
        NULL in their key can never match and are dropped first, which
        also keeps the sort keys totally ordered."""
        if self.spill is not None:
            return self._spilled_runs(index, fns)
        side = self._side(index)
        keys = _keys(fns, side)
        order = sorted(
            (i for i, key in enumerate(keys) if None not in key), key=keys.__getitem__
        )
        return (
            (key, side, list(run)) for key, run in groupby(order, keys.__getitem__)
        )

    def _spilled_runs(self, index: int, fns: list) -> Iterator[tuple]:
        """:meth:`_runs` through an external sort: each row carries its
        key behind it through the spill runs, and each run comes back
        as a batch of its own."""
        from repro.sql.spill import external_sort

        width = len(self.children[index].output)

        def keyed_rows():
            for batch in self.children[index].timed_batches():
                for row, key in zip(batch.rows, _keys(fns, batch)):
                    if None not in key:
                        yield row + key

        def key(row):
            return row[width:]

        for run_key, run in groupby(external_sort(keyed_rows(), key, self.spill), key):
            batch = transpose([row[:width] for row in run])
            yield run_key, batch, range(len(batch))

    def describe(self) -> str:
        return f"MergeJoin(keys={list(zip(self.left_keys, self.right_keys))})"


class HashJoinOp(_JoinBase):
    """Classic build/probe hash join on the equi-keys (build = right)."""

    def batches(self) -> Iterator[ColumnBatch]:
        if not self.left_keys:
            raise ValueError("HashJoin requires equi-join keys")
        build = self._side(1)
        table: dict[tuple, list[int]] = {}
        for j, key in enumerate(_keys(self._right_key_fns, build)):
            if None not in key:
                table.setdefault(key, []).append(j)
        for batch in self.children[0].timed_batches():
            lpos: list[int] = []
            rpos: list[int] = []
            # a NULL-bearing probe key finds nothing: none was built
            for i, key in enumerate(_keys(self._left_key_fns, batch)):
                matches = table.get(key)
                if matches:
                    lpos += [i] * len(matches)
                    rpos += matches
            joined = self._gather(batch, lpos, build.take(rpos))
            if joined:
                yield joined

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
        self._left_key_fn = compile_expr_batch(left_key, left.output)
        self._residual_fn = (
            compile_predicate_batch(residual, self.output)
            if residual is not None
            else None
        )

    is_scan = False  # inner lookups are booked to the frame's inner_seconds

    def batches(self) -> Iterator[ColumnBatch]:
        trace = current_trace()
        get = self.inner_table.get
        for batch in self.children[0].timed_batches():
            lpos: list[int] = []
            inner_rows: list[tuple] = []
            for i, key in enumerate(self._left_key_fn(batch)):
                if key is None:
                    continue
                if trace is None:
                    inner_row, _proof = get(key)
                else:
                    # inside this operator's lap: the top frame is its own
                    start = perf_counter()
                    inner_row, _proof = get(key)
                    trace.top.inner_seconds += perf_counter() - start
                if inner_row is not None:
                    lpos.append(i)
                    inner_rows.append(inner_row)
            if not lpos:
                continue
            joined = ColumnBatch(
                batch.take(lpos).columns + transpose(inner_rows).columns, len(lpos)
            )
            if self._residual_fn is not None:
                mask = self._residual_fn(joined)
                if not all(mask):
                    joined = joined.take_mask(mask)
            if joined:
                yield joined

    def describe(self) -> str:
        return (
            f"IndexNLJoin(inner={self.inner_table.name} as "
            f"{self.inner_binding}, key={self.left_key!r})"
        )
