"""Grouping and aggregation."""

from __future__ import annotations

from functools import reduce
from operator import add, itemgetter
from typing import Any, Iterator, Sequence

from repro.errors import PlanningError
from repro.sql.ast_nodes import Aggregate, Expr
from repro.sql.batch import ColumnBatch
from repro.sql.expressions import RowSchema, compile_expr_batch
from repro.sql.operators.base import PhysicalOp


class _AggState:
    """Accumulator for one aggregate function over one group.

    ``fold`` takes the group's values of one batch, in row order, and
    folds them in exactly as feeding them one at a time would: sums are
    ``functools.reduce(operator.add, …)`` from the running total (never
    ``sum()``, which compensates float error from CPython 3.12 on), and
    MIN/MAX start from the running best, so every result is
    bit-identical to a row-wise fold. ``fold`` and ``result`` are bound
    to the function's own step when the state is built. ``argument`` is
    None for ``COUNT(*)``, which counts rows, NULLs included (its fold
    takes the group's row positions); every other aggregate skips NULLs.
    """

    __slots__ = ("count", "total", "best", "seen", "fold", "result", "_step")

    def __init__(self, agg: Aggregate):
        self.count = 0
        self.total: Any = None
        self.best: Any = None
        self.seen: set | None = None
        step, self.result = {
            "COUNT": (self._count, self._result_count),
            "SUM": (self._sum, self._result_total),
            "AVG": (self._sum, self._result_avg),
            "MIN": (self._min, self._result_best),
            "MAX": (self._max, self._result_best),
        }[agg.func]
        if agg.argument is None:
            self.fold = self._count_rows
        elif agg.distinct:
            self.seen = set()
            self._step = step
            self.fold = self._distinct
        else:
            self.fold = step

    def _count_rows(self, rows: Sequence) -> None:
        self.count += len(rows)

    def _distinct(self, values: Sequence) -> None:
        # first occurrences, in row order, of values not seen before
        fresh = [
            value
            for value in dict.fromkeys(values)
            if value is not None and value not in self.seen
        ]
        if fresh:
            self.seen.update(fresh)
            self._step(fresh)

    def _count(self, values: Sequence) -> None:
        self.count += len(values) - values.count(None)

    def _sum(self, values: Sequence) -> None:
        values = _present(values)
        if values:
            self.count += len(values)
            if self.total is None:
                self.total = reduce(add, values)
            else:
                self.total = reduce(add, values, self.total)

    def _min(self, values: Sequence) -> None:
        values = _present(values)
        if values:
            self.best = min(values if self.best is None else (self.best, *values))

    def _max(self, values: Sequence) -> None:
        values = _present(values)
        if values:
            self.best = max(values if self.best is None else (self.best, *values))

    def _result_count(self) -> Any:
        return self.count

    def _result_total(self) -> Any:
        return self.total

    def _result_avg(self) -> Any:
        return None if self.count == 0 else self.total / self.count

    def _result_best(self) -> Any:
        return self.best


class HashAggregateOp(PhysicalOp):
    """Hash aggregation over group-by expressions.

    Output row = group-key values followed by aggregate results, with the
    synthetic names supplied by the planner (which rewrites aggregate
    references above this operator into column refs). Group-key and
    argument expressions are evaluated vectorized over each input batch;
    the accumulators then fold each group's slice of the resulting
    columns, one call per aggregate, group and batch.
    """

    def __init__(
        self,
        child: PhysicalOp,
        group_exprs: list[Expr],
        aggregates: list[Aggregate],
        output_names: list[str],
    ):
        if len(output_names) != len(group_exprs) + len(aggregates):
            raise PlanningError("aggregate output arity mismatch")
        super().__init__(
            RowSchema([(None, name) for name in output_names]), [child]
        )
        self.group_exprs = group_exprs
        self.aggregates = aggregates
        self._group_batch_fns = [
            compile_expr_batch(e, child.output) for e in group_exprs
        ]
        self._arg_batch_fns = [
            compile_expr_batch(agg.argument, child.output)
            if agg.argument is not None
            else None
            for agg in aggregates
        ]

    def batches(self) -> Iterator[ColumnBatch]:
        groups: dict[tuple, list[_AggState]] = {}
        grouped = bool(self._group_batch_fns)
        for batch in self.children[0].timed_batches():
            # column-at-a-time: group keys and aggregate arguments are
            # evaluated as whole columns, the batch's row positions are
            # grouped by key once, and each aggregate folds its group's
            # values in row order; a global aggregate folds whole columns
            arg_columns = [
                None if fn is None else fn(batch) for fn in self._arg_batch_fns
            ]
            if grouped:
                positions: dict[tuple, list[int]] = {}
                keys = zip(*[fn(batch) for fn in self._group_batch_fns])
                for i, key in enumerate(keys):
                    at = positions.get(key)
                    if at is None:
                        positions[key] = [i]
                    else:
                        at.append(i)
            else:
                positions = {(): range(len(batch))}
            for key, rows in positions.items():
                states = groups.get(key)
                if states is None:
                    states = groups[key] = [_AggState(agg) for agg in self.aggregates]
                take = _taker(rows) if grouped else _whole
                for state, column in zip(states, arg_columns):
                    state.fold(rows if column is None else take(column))
        if not groups and not self.group_exprs:
            # global aggregate over an empty input still yields one row
            groups[()] = [_AggState(agg) for agg in self.aggregates]
        # one column per group key, then one per aggregate
        columns = [list(values) for values in zip(*groups)]
        columns += [
            [states[i].result() for states in groups.values()]
            for i in range(len(self.aggregates))
        ]
        yield from ColumnBatch(columns, len(groups)).take_chunks(range(len(groups)))

    def describe(self) -> str:
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"HashAggregate(by={self.group_exprs!r}, aggs=[{aggs}])"


def _present(values: Sequence) -> Sequence:
    """The non-NULL values, in row order."""
    return [value for value in values if value is not None] if None in values else values


def _whole(column: list) -> list:
    return column


def _taker(rows: list[int]):
    """A column → its values at ``rows``, in order, as a sequence."""
    if len(rows) == 1:
        (row,) = rows
        return lambda column: (column[row],)
    return itemgetter(*rows)
