"""Scatter-gather plan nodes: pushdown execution as physical operators.

A pushed-down query runs as a two-level plan the coordinator drains
like any other. The plan is a cached template, planned once per
statement shape like every other plan in the engine:

* :class:`ShardFragmentOp` — one leaf per shard, carrying the statement
  fragment the router ships to that worker's plan cache. It never
  produces batches itself (the worker executes the fragment remotely);
  under a run ledger the gather books the worker-reported row count,
  elapsed time and trace segment to the leaf's frame, so
  ``explain_analyze`` output shows per-shard attribution exactly where
  a scan node would show per-table attribution.
* :class:`ShardGatherOp` — prunes the fragments to the shards the bound
  parameters can reach, scatters them over the links (in parallel),
  verifies every MAC'd reply, and merges:

  - ``rows`` mode emits each shard's reply as one batch, as it arrived,
    transposed to columns once (post-ops — sort, distinct, limit —
    stack on top as ordinary operators);
  - ``agg`` mode combines per-shard *partial* aggregates: COUNT partials
    add, SUM partials add, MIN/MAX partials fold, and AVG merges its
    (SUM, COUNT) pair — emitting the same ``__g*``/``__a*`` output
    schema a local :class:`~repro.sql.operators.aggregate.HashAggregateOp`
    would, so the planner's HAVING/projection/order machinery composes
    unchanged on top.

Which shards took part and how many were pruned is a fact about one
run: it goes to the run ledger (the gather frame's ``shards`` and
``pruned``) and the ``shard.partitions_pruned`` counter, never onto
the template.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterator, Optional

from repro.obs.trace_context import TraceContext, current_trace
from repro.sql.ast_nodes import Statement
from repro.sql.batch import ColumnBatch, transpose
from repro.sql.expressions import RowSchema
from repro.sql.operators.base import PhysicalOp
from repro.sql.params import bound_values

#: merge spec entries: ("count", j) | ("sum", j) | ("min", j) |
#: ("max", j) | ("avg", j_sum, j_count) — j indexes the partial columns
#: *after* the group-key prefix of each fragment row
MergeSpec = tuple


class ShardFragmentOp(PhysicalOp):
    """Leaf standing in for one worker's remote fragment execution."""

    is_scan = True  # per-shard time counts as scan time in Figure-12 splits

    def __init__(self, shard_id: int, stmt: Statement, output: RowSchema):
        super().__init__(output, [])
        self.shard_id = shard_id
        self.stmt = stmt

    def batches(self) -> Iterator[ColumnBatch]:
        # never drained on the coordinator; the gather node consumes worker replies
        return iter(())

    def describe(self) -> str:
        return f"ShardFragment(shard {self.shard_id})"


class ShardGatherOp(PhysicalOp):
    """Prune and scatter fragments, verify replies, merge rows or partials."""

    def __init__(
        self,
        scatter,
        fragment_id: int,
        fragments: list[ShardFragmentOp],
        output: RowSchema,
        prune,
        mode: str = "rows",
        group_count: int = 0,
        merges: Optional[list[MergeSpec]] = None,
    ):
        super().__init__(output, list(fragments))
        #: callable(gather, participating fragments, params) -> one reply
        #: dict per fragment, in order — bound to the router's links
        self._scatter = scatter
        #: the id every worker caches this template's fragment under
        self.fragment_id = fragment_id
        self.fragments = fragments
        #: callable(params) -> shard ids the WHERE can reach
        self._prune = prune
        self.mode = mode
        self.group_count = group_count
        self.merges = merges or []

    # ------------------------------------------------------------------
    def batches(self) -> Iterator[ColumnBatch]:
        trace = current_trace()
        start = perf_counter() if trace is not None else 0.0
        params = bound_values()
        shard_ids = self._prune(params)
        fragments = [f for f in self.fragments if f.shard_id in shard_ids]
        replies = self._scatter(self, fragments, params)
        scattered = perf_counter() if trace is not None else 0.0
        # each reply's rows (or the merged partials) are transposed once
        if self.mode == "agg":
            rows = self._merge_partials(replies)
            out = [transpose(rows)] if rows else []
        else:
            out = [transpose(r["rows"]) for r in replies if r["rows"]]
        if trace is not None:
            merged = perf_counter() - scattered
            self._book(trace, fragments, replies, scattered - start, merged)
        return iter(out)

    def _book(
        self,
        trace: TraceContext,
        fragments: list[ShardFragmentOp],
        replies: list[dict],
        scatter: float,
        merge: float,
    ) -> None:
        """Book the fan-out to the ledger: own frame, then one per shard."""
        # called inside this operator's lap: the top frame is its own
        trace.top.extra = {
            "scatter_seconds": scatter,
            "merge_seconds": merge,
            "shards": [f.shard_id for f in fragments],
            "pruned": len(self.fragments) - len(fragments),
        }
        for fragment, reply in zip(fragments, replies):
            frame = trace.op_stats(fragment)
            frame.rows_out = reply["rowcount"]
            frame.batches_out = 1 if reply["rowcount"] else 0
            trace.charge(frame, reply["elapsed"])
            frame.extra = {"wire_seconds": reply.get("wire_seconds", 0.0)}
            if reply.get("segment") is not None:
                # the worker's serialized per-operator frames, stitched
                # into EXPLAIN ANALYZE output
                frame.extra["remote"] = reply["segment"]

    # ------------------------------------------------------------------
    def _merge_partials(self, replies: list[dict]) -> list[tuple]:
        k = self.group_count
        groups: dict[tuple, list[list[Any]]] = {}
        order: list[tuple] = []
        for reply in replies:
            for row in reply["rows"]:
                key = tuple(row[:k])
                partials = groups.get(key)
                if partials is None:
                    groups[key] = [list(row[k:])]
                    order.append(key)
                else:
                    partials.append(list(row[k:]))
        merged: list[tuple] = []
        for key in order:
            partials = groups[key]
            merged.append(key + tuple(
                self._merge_one(spec, partials) for spec in self.merges
            ))
        if not merged and k == 0 and self.merges:
            # a global aggregate over zero participating shards still
            # returns its one empty-input row (COUNT 0, SUM NULL), the
            # same as a local aggregate over an empty scan
            merged.append(tuple(
                self._merge_one(spec, []) for spec in self.merges
            ))
        return merged

    @staticmethod
    def _merge_one(spec: MergeSpec, partials: list[list[Any]]) -> Any:
        kind, j = spec[0], spec[1]
        if kind == "count":
            return sum(p[j] for p in partials)
        if kind == "avg":
            j_count = spec[2]
            total = None
            count = 0
            for p in partials:
                if p[j] is not None:
                    total = p[j] if total is None else total + p[j]
                count += p[j_count]
            return None if count == 0 else total / count
        values = [p[j] for p in partials if p[j] is not None]
        if not values:
            return None
        if kind == "sum":
            total = values[0]
            for value in values[1:]:
                total = total + value
            return total
        return min(values) if kind == "min" else max(values)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        shards = [f.shard_id for f in self.fragments]
        return f"ShardGather[{self.mode}](shards={shards})"
