"""Grouping and aggregation."""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import PlanningError
from repro.sql.ast_nodes import Aggregate, Expr
from repro.sql.batch import ColumnBatch, batched
from repro.sql.expressions import RowSchema, compile_expr_batch
from repro.sql.operators.base import PhysicalOp


class _AggState:
    """Accumulator for one aggregate function over one group.

    ``feed`` and ``result`` are bound to the function's own step when
    the state is built, so the per-value path never looks at the
    function name. ``argument`` is None for ``COUNT(*)``, which counts
    rows, NULLs included; every other aggregate skips NULLs.
    """

    __slots__ = ("count", "total", "best", "seen", "feed", "result", "_step")

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
            self.feed = self._count_row
        elif agg.distinct:
            self.seen = set()
            self._step = step
            self.feed = self._distinct
        else:
            self.feed = step

    def _count_row(self, value: Any) -> None:
        self.count += 1

    def _distinct(self, value: Any) -> None:
        if value is not None and value not in self.seen:
            self.seen.add(value)
            self._step(value)

    def _count(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def _sum(self, value: Any) -> None:
        if value is not None:
            self.count += 1
            self.total = value if self.total is None else self.total + value

    def _min(self, value: Any) -> None:
        if value is not None and (self.best is None or value < self.best):
            self.best = value

    def _max(self, value: Any) -> None:
        if value is not None and (self.best is None or value > self.best):
            self.best = value

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
    the accumulators then consume the resulting columns row-wise.
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
        order: list[tuple] = []
        for batch in self.children[0].timed_batches():
            # column-at-a-time: group keys and aggregate arguments are
            # evaluated as whole columns, then accumulated row-wise
            key_columns = [fn(batch) for fn in self._group_batch_fns]
            arg_columns = [
                None if fn is None else fn(batch) for fn in self._arg_batch_fns
            ]
            for i in range(len(batch)):
                key = tuple(column[i] for column in key_columns)
                states = groups.get(key)
                if states is None:
                    states = [_AggState(agg) for agg in self.aggregates]
                    groups[key] = states
                    order.append(key)
                for state, column in zip(states, arg_columns):
                    state.feed(None if column is None else column[i])
        if not groups and not self.group_exprs:
            # global aggregate over an empty input still yields one row
            states = [_AggState(agg) for agg in self.aggregates]
            yield ColumnBatch.from_rows([tuple(state.result() for state in states)])
            return
        output = [
            key + tuple(state.result() for state in groups[key]) for key in order
        ]
        yield from batched(output, self.batch_size)

    def describe(self) -> str:
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"HashAggregate(by={self.group_exprs!r}, aggs=[{aggs}])"
