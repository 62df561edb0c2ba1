"""The scatter-gather router: route, push down, verify, merge.

The router owns the shard links and is the only component that talks
to them. It provides:

* :meth:`ScatterRouter.call` / :meth:`scatter` — authenticated
  request fan-out with per-shard latency histograms and typed
  tamper/replay/loss accounting;
* :meth:`plan_select` — the pushdown decision. A single-table SELECT
  becomes a :class:`~repro.shard.plan.ShardGatherOp` template over one
  fragment per shard, planned once per statement shape (the
  coordinator engine caches it like any plan) and numbered with a
  fresh *fragment id* that the workers cache their own plan under, in
  one of two modes:

  - **partial aggregation** — grouped/aggregated queries ship a
    rewritten fragment computing per-shard partials (SUM/COUNT/MIN/MAX
    as themselves, AVG as a SUM+COUNT pair); the gather merges partials
    and the planner's own HAVING/projection/ORDER/LIMIT machinery runs
    on top, exactly as it would over a local HashAggregate.
  - **row pushdown** — filter and projection execute on the workers;
    the coordinator concatenates, then re-sorts/dedups/limits.

  Shard-key predicates prune the fragment list per execution, against
  the bound parameters (hash partitioning prunes equalities and IN
  lists; range partitioning prunes ranges too). Queries the pushdown
  analysis declines — joins, subqueries,
  DISTINCT aggregates, un-normalizable ORDER BY — return None and run
  in *gather mode*: the coordinator's own engine executes the original
  plan over proxy stores, which scatter at the storage interface
  instead. Either way, every reply crosses the untrusted transport
  inside a MAC'd envelope.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from time import perf_counter
from typing import Any, Optional

from repro.errors import (
    ShardReplyLost,
    ShardReplyReplayed,
    ShardReplyTampered,
)
from repro.obs.trace_context import current_trace
from repro.shard.envelope import FRAGMENT_MISS
from repro.shard.partition import partitioner_for, prune_shards
from repro.shard.plan import ShardFragmentOp, ShardGatherOp
from repro.sql.ast_nodes import (
    Aggregate,
    ColumnRef,
    OrderItem,
    Select,
    SelectItem,
)
from repro.sql.expressions import RowSchema, find_aggregates, substitute
from repro.sql.operators import DistinctOp, FilterOp, LimitOp, SortOp, TopNOp
from repro.sql.operators.base import PhysicalOp
from repro.sql.plan_cache import statement_has_subqueries


class ScatterRouter:
    """Authenticated fan-out over the shard links plus SELECT pushdown."""

    def __init__(self, links, config, catalog, planner, registry):
        self.links = links
        self.config = config
        self.catalog = catalog
        self.planner = planner
        self.obs = registry
        self._executor: Optional[ThreadPoolExecutor] = None
        #: every pushed template gets a fresh id, so a template rebuilt
        #: after DDL never reuses a worker's stale fragment plan
        self._fragment_ids = itertools.count(1)
        self._ctr_requests = registry.counter("shard.requests")
        self._ctr_scattered = registry.counter("shard.queries_scattered")
        self._ctr_pruned = registry.counter("shard.partitions_pruned")
        self._ctr_merge_rows = registry.counter("shard.merge_rows")
        self._ctr_push_agg = registry.counter("shard.pushdown_aggregate")
        self._ctr_push_rows = registry.counter("shard.pushdown_select")
        self._ctr_tampered = registry.counter("shard.reply_tampered")
        self._ctr_replayed = registry.counter("shard.reply_replayed")
        self._ctr_lost = registry.counter("shard.reply_lost")
        # one labeled series per shard (shard="N"), not one metric name
        # per shard: name cardinality stays constant as the fleet grows
        self._latency = [
            registry.histogram(
                "shard.request_seconds", labels={"shard": str(link.shard_id)}
            )
            for link in links
        ]
        self._wire = [
            registry.histogram(
                "shard.envelope_wire_seconds",
                labels={"shard": str(link.shard_id)},
            )
            for link in links
        ]

    @property
    def shard_count(self) -> int:
        return len(self.links)

    # ------------------------------------------------------------------
    # transport fan-out
    # ------------------------------------------------------------------
    def call(self, shard_id: int, op: str, payload: Any) -> Any:
        self._ctr_requests.inc()
        start = perf_counter()
        try:
            result = self.links[shard_id].call(op, payload)
        except ShardReplyTampered:
            self._ctr_tampered.inc()
            raise
        except ShardReplyReplayed:
            self._ctr_replayed.inc()
            raise
        except ShardReplyLost:
            self._ctr_lost.inc()
            raise
        round_trip = perf_counter() - start
        self._latency[shard_id].observe(round_trip)
        if isinstance(result, dict) and "elapsed" in result:
            # everything the round trip spent outside worker execution:
            # envelope seal/open, pickling, and the wire itself
            wire = max(0.0, round_trip - result["elapsed"])
            result["wire_seconds"] = wire
            self._wire[shard_id].observe(wire)
        return result

    def scatter(
        self, shard_ids, op: str, payload_fn, resend=None
    ) -> list[Any]:
        """Run ``op`` on each shard concurrently; results in shard order.

        ``payload_fn(shard_id)`` builds the per-shard payload; a shard
        answering :data:`FRAGMENT_MISS` is asked once more with
        ``resend(shard_id)``. The first worker error (typed,
        reconstructed) propagates after all round trips settle.
        """

        def one(shard_id: int) -> Any:
            reply = self.call(shard_id, op, payload_fn(shard_id))
            if reply is FRAGMENT_MISS and resend is not None:
                reply = self.call(shard_id, op, resend(shard_id))
            return reply

        shard_ids = sorted(shard_ids)
        if len(shard_ids) <= 1:
            return [one(i) for i in shard_ids]
        pool = self._pool()
        futures = [pool.submit(one, i) for i in shard_ids]
        return [future.result() for future in futures]

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=max(2, len(self.links)),
                thread_name_prefix="shard-scatter",
            )
        return self._executor

    def broadcast(self, op: str, payload: Any) -> list[Any]:
        return self.scatter(
            range(len(self.links)), op, lambda _i: payload
        )

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # SELECT pushdown
    # ------------------------------------------------------------------
    def plan_select(self, stmt: Select) -> Optional[PhysicalOp]:
        """A scatter-gather template for ``stmt``, or None for gather mode."""
        if (
            len(stmt.tables) != 1
            or stmt.joins
            or statement_has_subqueries(stmt)
        ):
            return None
        table_ref = stmt.tables[0]
        info = self.catalog.lookup(table_ref.name)
        shard_key = self.config.shard_key_for(info.name, info.schema)
        partitioner = partitioner_for(self.config, info.name)

        def prune(params: tuple) -> set[int]:
            return prune_shards(
                stmt.where,
                shard_key,
                partitioner,
                params,
                binding=table_ref.binding,
            )

        aggregates: list[Aggregate] = []
        for item in stmt.items:
            aggregates.extend(find_aggregates(item.expr))
        if stmt.having is not None:
            aggregates.extend(find_aggregates(stmt.having))
        for item in stmt.order_by:
            aggregates.extend(find_aggregates(item.expr))

        if aggregates or stmt.group_by:
            return self._plan_aggregate_pushdown(stmt, aggregates, prune)
        return self._plan_row_pushdown(stmt, prune)

    def _fragments(self, stmt: Select, output: RowSchema):
        return [
            ShardFragmentOp(shard_id, stmt, output)
            for shard_id in range(self.shard_count)
        ]

    def _scatter_fragments(self, gather, fragments, params: tuple) -> list[dict]:
        """Run one gather's participating fragments; books the routing
        counters, so they count executions, never plannings."""
        self._ctr_scattered.inc()
        self._ctr_pruned.inc(len(gather.fragments) - len(fragments))
        if gather.mode == "agg":
            self._ctr_push_agg.inc()
        else:
            self._ctr_push_rows.inc()
        stmts = {f.shard_id: f.stmt for f in fragments}
        # propagate a sampled trace to the workers (the engine's own
        # registry ledger asks nothing of them): the qid rides inside
        # the pickled payload, so it is covered by the request MAC. The
        # trace is read here, on the query thread, because the scatter
        # pool threads never see the coordinator's ContextVar.
        trace = current_trace()
        body = {"fragment": gather.fragment_id, "params": params}
        if trace is not None and trace.sampled:
            body["trace"] = {"qid": trace.qid}

        replies = self.scatter(
            stmts,
            "stmt",
            lambda _shard_id: body,
            resend=lambda shard_id: {**body, "stmt": stmts[shard_id]},
        )
        self._ctr_merge_rows.inc(sum(r["rowcount"] for r in replies))
        return replies

    # -- partial aggregation -------------------------------------------
    def _plan_aggregate_pushdown(self, stmt, aggregates, prune):
        if stmt.star:
            return None  # the planner rejects SELECT * in grouped queries
        unique_aggs: list[Aggregate] = []
        for agg in aggregates:
            if agg.distinct:
                # DISTINCT aggregates cannot be merged from per-shard
                # partials (the same value may appear on many shards)
                return None
            if agg not in unique_aggs:
                unique_aggs.append(agg)

        group_exprs = list(stmt.group_by)
        items = [
            SelectItem(expr, f"__g{i}") for i, expr in enumerate(group_exprs)
        ]
        merges = []
        partial = 0
        for agg in unique_aggs:
            if agg.func in ("COUNT", "SUM", "MIN", "MAX"):
                items.append(SelectItem(agg, f"__p{partial}"))
                merges.append((agg.func.lower(), partial))
                partial += 1
            elif agg.func == "AVG":
                items.append(
                    SelectItem(Aggregate("SUM", agg.argument), f"__p{partial}")
                )
                items.append(
                    SelectItem(
                        Aggregate("COUNT", agg.argument), f"__p{partial + 1}"
                    )
                )
                merges.append(("avg", partial, partial + 1))
                partial += 2
            else:
                return None
        fragment_stmt = replace(
            stmt,
            items=items,
            where=stmt.where,
            having=None,
            order_by=[],
            limit=None,
            distinct=False,
        )
        names = [f"__g{i}" for i in range(len(group_exprs))] + [
            f"__a{i}" for i in range(len(unique_aggs))
        ]
        output = RowSchema([(None, name) for name in names])
        fragment_output = RowSchema(
            [(None, item.alias) for item in items]
        )
        gather = ShardGatherOp(
            self._scatter_fragments,
            next(self._fragment_ids),
            self._fragments(fragment_stmt, fragment_output),
            output,
            prune,
            mode="agg",
            group_count=len(group_exprs),
            merges=merges,
        )
        mapping = {expr: ColumnRef(f"__g{i}") for i, expr in enumerate(group_exprs)}
        for i, agg in enumerate(unique_aggs):
            mapping[agg] = ColumnRef(f"__a{i}")
        plan = gather
        if stmt.having is not None:
            plan = FilterOp(plan, substitute(stmt.having, mapping))
        return self.planner._plan_projection_order_limit(plan, stmt, mapping)

    # -- row pushdown ---------------------------------------------------
    def _plan_row_pushdown(self, stmt, prune):
        info = self.catalog.lookup(stmt.tables[0].name)
        if stmt.star:
            names = list(info.schema.column_names)
        else:
            names = []
            for i, item in enumerate(stmt.items):
                if item.alias:
                    names.append(item.alias)
                elif isinstance(item.expr, ColumnRef):
                    names.append(item.expr.name)
                else:
                    names.append(f"col{i}")

        # every ORDER BY key must be re-sortable over the pushed output:
        # a select alias, a projected column, or a structural match of a
        # projected expression — otherwise gather mode handles it
        sort_items: list[OrderItem] = []
        for item in stmt.order_by:
            name = self._output_name_for(item.expr, stmt, names)
            if name is None:
                return None
            sort_items.append(OrderItem(ColumnRef(name), item.ascending))

        fragment_stmt = replace(
            stmt,
            order_by=list(stmt.order_by) if stmt.limit is not None else [],
            limit=stmt.limit,
        )
        output = RowSchema([(None, name) for name in names])
        plan = ShardGatherOp(
            self._scatter_fragments,
            next(self._fragment_ids),
            self._fragments(fragment_stmt, output),
            output,
            prune,
        )
        if sort_items and stmt.limit is not None and not stmt.distinct:
            plan = TopNOp(plan, sort_items, stmt.limit)
        else:
            if sort_items:
                plan = SortOp(plan, sort_items, spill=self.planner.spill)
            if stmt.distinct:
                plan = DistinctOp(plan)
            if stmt.limit is not None:
                plan = LimitOp(plan, stmt.limit)
        return plan

    @staticmethod
    def _output_name_for(expr, stmt, names: list[str]) -> Optional[str]:
        if isinstance(expr, ColumnRef) and expr.qualifier is None:
            if expr.name in names:
                return expr.name
        if stmt.star:
            if isinstance(expr, ColumnRef) and expr.name in names:
                return expr.name
            return None
        for item, name in zip(stmt.items, names):
            if item.expr == expr:
                return name
        if isinstance(expr, ColumnRef) and expr.qualifier is not None:
            if expr.name in names:
                return expr.name
        return None
