"""Scatter-gather plan nodes: pushdown execution as physical operators.

A pushed-down query runs as a two-level plan the coordinator drains
like any other:

* :class:`ShardFragmentOp` — one leaf per participating shard, carrying
  the statement fragment shipped to that worker. It never produces
  batches itself (the worker executes the fragment remotely); after the
  gather completes it is stamped with the worker-reported row count and
  elapsed time, so ``EXPLAIN``/``explain_analyze`` output shows
  per-shard attribution exactly where a scan node would show per-table
  attribution.
* :class:`ShardGatherOp` — scatters the fragments over the links (in
  parallel), verifies every MAC'd reply, and merges:

  - ``rows`` mode concatenates shard row streams (post-ops — sort,
    distinct, limit — stack on top as ordinary operators);
  - ``agg`` mode combines per-shard *partial* aggregates: COUNT partials
    add, SUM partials add, MIN/MAX partials fold, and AVG merges its
    (SUM, COUNT) pair — emitting the same ``__g*``/``__a*`` output
    schema a local :class:`~repro.sql.operators.aggregate.HashAggregateOp`
    would, so the planner's HAVING/projection/order machinery composes
    unchanged on top.

Pruned shards simply have no fragment; the gather records how many were
pruned for the EXPLAIN line and the ``shard.partitions_pruned`` counter.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterator, Optional

from repro.sql.ast_nodes import Statement
from repro.sql.batch import ColumnBatch, batched
from repro.sql.expressions import RowSchema
from repro.sql.operators.base import PhysicalOp

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
        #: the worker's serialized trace segment (per-operator frames),
        #: stitched into EXPLAIN ANALYZE output when tracing is on
        self.remote_segment: Optional[dict] = None
        #: round-trip time not spent executing on the worker
        self.wire_seconds = 0.0

    def record(
        self,
        rowcount: int,
        elapsed: float,
        wire_seconds: float = 0.0,
        segment: Optional[dict] = None,
    ) -> None:
        """Stamp worker-reported execution stats for plan attribution."""
        self.rows_out = rowcount
        self.batches_out = 1 if rowcount else 0
        self.total_seconds = elapsed
        self.wire_seconds = wire_seconds
        self.remote_segment = segment

    def batches(self) -> Iterator[ColumnBatch]:
        # never drained locally; the gather node consumes worker replies
        return iter(())

    def describe(self) -> str:
        return f"ShardFragment(shard {self.shard_id})"


class ShardGatherOp(PhysicalOp):
    """Scatter fragments, verify replies, merge rows or partial aggregates."""

    def __init__(
        self,
        scatter,
        fragments: list[ShardFragmentOp],
        output: RowSchema,
        mode: str = "rows",
        group_count: int = 0,
        merges: Optional[list[MergeSpec]] = None,
        params: tuple = (),
        pruned: int = 0,
    ):
        super().__init__(output, list(fragments))
        #: callable(list[(shard_id, stmt)], params) -> list[reply dict],
        #: one reply per fragment in order — bound to the router's links
        self._scatter = scatter
        self.fragments = fragments
        self.mode = mode
        self.group_count = group_count
        self.merges = merges or []
        self.params = params
        self.pruned = pruned
        #: fan-out and merge wall time, stamped per drain for EXPLAIN
        self.scatter_seconds = 0.0
        self.merge_seconds = 0.0

    # ------------------------------------------------------------------
    def batches(self) -> Iterator[ColumnBatch]:
        scatter_start = perf_counter()
        replies = self._scatter(
            [(f.shard_id, f.stmt) for f in self.fragments], self.params
        )
        self.scatter_seconds = perf_counter() - scatter_start
        for fragment, reply in zip(self.fragments, replies):
            fragment.record(
                reply["rowcount"],
                reply["elapsed"],
                wire_seconds=reply.get("wire_seconds", 0.0),
                segment=reply.get("segment"),
            )
        merge_start = perf_counter()
        if self.mode == "agg":
            rows = self._merge_partials(replies)
        else:
            rows = [row for reply in replies for row in reply["rows"]]
        self.merge_seconds = perf_counter() - merge_start
        return batched(rows, self.batch_size)

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
        return (
            f"ShardGather[{self.mode}](shards={shards}, "
            f"pruned={self.pruned})"
        )
