"""The scatter-gather router: route, push down, verify, merge.

The router owns the shard links and is the only component that talks
to them. It provides:

* :meth:`ScatterRouter.call` / :meth:`scatter` — authenticated
  request fan-out with per-shard latency histograms and typed
  tamper/replay/loss accounting;
* :meth:`plan_select` — the pushdown decision. A single-table SELECT
  becomes a :class:`~repro.shard.plan.ShardGatherOp` over per-shard
  fragments, in one of two modes:

  - **partial aggregation** — grouped/aggregated queries ship a
    rewritten fragment computing per-shard partials (SUM/COUNT/MIN/MAX
    as themselves, AVG as a SUM+COUNT pair); the gather merges partials
    and the planner's own HAVING/projection/ORDER/LIMIT machinery runs
    on top, exactly as it would over a local HashAggregate.
  - **row pushdown** — filter and projection execute on the workers;
    the coordinator concatenates, then re-sorts/dedups/limits.

  Shard-key predicates prune the fragment list first (hash partitioning
  prunes equalities and IN lists; range partitioning prunes ranges
  too). Queries the pushdown analysis declines — joins, subqueries,
  DISTINCT aggregates, un-normalizable ORDER BY — return None and run
  in *gather mode*: the coordinator's own engine executes the original
  plan over proxy stores, which scatter at the storage interface
  instead. Either way, every reply crosses the untrusted transport
  inside a MAC'd envelope.
"""

from __future__ import annotations

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
        self._ctr_requests = registry.counter("shard.requests")
        self._ctr_scattered = registry.counter("shard.queries_scattered")
        self._ctr_pruned = registry.counter("shard.partitions_pruned")
        self._ctr_merge_rows = registry.counter("shard.merge_rows")
        self._ctr_push_agg = registry.counter("shard.pushdown_aggregate")
        self._ctr_push_rows = registry.counter("shard.pushdown_select")
        self._ctr_fallback = registry.counter("shard.fallback_gather")
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
        self._in_flight = [
            registry.gauge(
                "shard.in_flight", labels={"shard": str(link.shard_id)}
            )
            for link in links
        ]
        registry.gauge("shard.workers").set(len(links))

    @property
    def shard_count(self) -> int:
        return len(self.links)

    # ------------------------------------------------------------------
    # transport fan-out
    # ------------------------------------------------------------------
    def call(self, shard_id: int, op: str, payload: Any) -> Any:
        self._ctr_requests.inc()
        self._in_flight[shard_id].inc()
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
        finally:
            self._in_flight[shard_id].dec()
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
        self, shard_ids, op: str, payload_fn
    ) -> list[Any]:
        """Run ``op`` on each shard concurrently; results in shard order.

        ``payload_fn(shard_id)`` builds the per-shard payload. The
        first worker error (typed, reconstructed) propagates after all
        round trips settle.
        """
        shard_ids = sorted(shard_ids)
        if len(shard_ids) <= 1:
            return [self.call(i, op, payload_fn(i)) for i in shard_ids]
        pool = self._pool()
        futures = [
            pool.submit(self.call, i, op, payload_fn(i)) for i in shard_ids
        ]
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
    def plan_select(
        self, stmt: Select, params: tuple = ()
    ) -> Optional[ShardGatherOp]:
        """A scatter-gather plan for ``stmt``, or None for gather mode."""
        if (
            len(stmt.tables) != 1
            or stmt.joins
            or statement_has_subqueries(stmt)
        ):
            self._ctr_fallback.inc()
            return None
        table_ref = stmt.tables[0]
        info = self.catalog.lookup(table_ref.name)
        shard_key = self.config.shard_key_for(info.name, info.schema)
        partitioner = partitioner_for(self.config, info.name)
        if self.config.prune:
            shard_ids = prune_shards(
                stmt.where,
                shard_key,
                partitioner,
                params,
                binding=table_ref.binding,
            )
        else:
            shard_ids = set(range(self.shard_count))
        pruned = self.shard_count - len(shard_ids)

        aggregates: list[Aggregate] = []
        for item in stmt.items:
            aggregates.extend(find_aggregates(item.expr))
        if stmt.having is not None:
            aggregates.extend(find_aggregates(stmt.having))
        for item in stmt.order_by:
            aggregates.extend(find_aggregates(item.expr))

        if aggregates or stmt.group_by:
            plan = self._plan_aggregate_pushdown(
                stmt, aggregates, shard_ids, pruned, params
            )
        else:
            plan = self._plan_row_pushdown(stmt, shard_ids, pruned, params)
        if plan is None:
            self._ctr_fallback.inc()
            return plan
        self._ctr_scattered.inc()
        self._ctr_pruned.inc(pruned)
        return plan

    def _scatter_fragments(self, fragments, params: tuple) -> list[dict]:
        stmts = dict(fragments)
        # propagate a sampled trace to the workers (the engine's own
        # registry ledger asks nothing of them): the qid rides inside
        # the pickled payload, so it is covered by the request MAC. The
        # trace is read here, on the query thread, because the scatter
        # pool threads never see the coordinator's ContextVar.
        trace = current_trace()
        trace_info = (
            {"qid": trace.qid} if trace is not None and trace.sampled else None
        )

        def payload(shard_id: int) -> dict:
            body = {"stmt": stmts[shard_id], "params": params}
            if trace_info is not None:
                body["trace"] = trace_info
            return body

        replies = self.scatter(stmts.keys(), "stmt", payload)
        self._ctr_merge_rows.inc(sum(r["rowcount"] for r in replies))
        return replies

    # -- partial aggregation -------------------------------------------
    def _plan_aggregate_pushdown(
        self, stmt, aggregates, shard_ids, pruned, params
    ):
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
        fragments = [
            ShardFragmentOp(shard_id, fragment_stmt, fragment_output)
            for shard_id in sorted(shard_ids)
        ]
        gather = ShardGatherOp(
            self._scatter_fragments,
            fragments,
            output,
            mode="agg",
            group_count=len(group_exprs),
            merges=merges,
            params=params,
            pruned=pruned,
        )
        mapping = {expr: ColumnRef(f"__g{i}") for i, expr in enumerate(group_exprs)}
        for i, agg in enumerate(unique_aggs):
            mapping[agg] = ColumnRef(f"__a{i}")
        plan = gather
        if stmt.having is not None:
            plan = FilterOp(plan, substitute(stmt.having, mapping))
        plan = self.planner._plan_projection_order_limit(plan, stmt, mapping)
        self._ctr_push_agg.inc()
        return self.planner._stamp(plan)

    # -- row pushdown ---------------------------------------------------
    def _plan_row_pushdown(self, stmt, shard_ids, pruned, params):
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
        fragments = [
            ShardFragmentOp(shard_id, fragment_stmt, output)
            for shard_id in sorted(shard_ids)
        ]
        plan = ShardGatherOp(
            self._scatter_fragments,
            fragments,
            output,
            mode="rows",
            params=params,
            pruned=pruned,
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
        self._ctr_push_rows.inc()
        return self.planner._stamp(plan)

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
