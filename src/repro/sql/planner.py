"""Query planning and optimization (runs inside the enclave, Section 3.3).

Pipeline for SELECT:

1. bind tables, pool the WHERE and JOIN-ON conjuncts;
2. choose an access path per table — verified point lookup for a
   primary-key equality, verified range scan when a chained column has
   sargable bounds (unless it is a secondary chain's range over
   ``SEQ_SCAN_SHARE`` of the table), verified sequential scan otherwise
   — with residual conjuncts as filters; access paths are told which of
   the table's columns the statement reads anywhere and emit only those
   (projection pushdown: the storage layer materialises nothing else; a
   point lookup also drops the key its equality consumed);
3. build a left-deep join tree in FROM order, picking the join
   algorithm (index-nested-loop through the inner table's primary key,
   hash, merge, or plain nested loops); callers may force one with
   ``join_hint`` — the Figure 12 experiment compares Q19 under
   ``merge`` vs ``nested_loop``;
4. plan grouping/aggregation by rewriting aggregate expressions into
   references over the aggregate operator's output;
5. HAVING, projection, ORDER BY, LIMIT on top.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.catalog.catalog import Catalog
from repro.errors import PlanningError
from repro.sql.ast_nodes import (
    Aggregate,
    Between,
    BinaryOp,
    SUBQUERY_NODES,
    ColumnRef,
    ExistsSubquery,
    Expr,
    InSet,
    InSubquery,
    Literal,
    OrderItem,
    Parameter,
    Select,
    map_children,
    walk,
)
from repro.sql.expressions import (
    find_aggregates,
    referenced_columns,
    split_conjuncts,
    substitute,
)
from repro.sql.operators import (
    DistinctOp,
    FilterOp,
    FusedScanFilterProjectOp,
    HashAggregateOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    LimitOp,
    MergeJoinOp,
    NestedLoopJoinOp,
    PhysicalOp,
    PointLookupOp,
    ProjectOp,
    RangeScanOp,
    SeqScanOp,
    SortOp,
    TopNOp,
)
from repro.sql.params import ParamMarker

JOIN_HINTS = ("merge", "nested_loop", "hash", "index_nl")

_FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: a range on a secondary chain estimated to cover more than this share
#: of its table is read by the sequential scan and filtered: chain order
#: lands on ~one record per heap page run, the primary chain on whole
#: runs (crossover measured on TPC-H ``lineitem``, EXPERIMENTS A20)
SEQ_SCAN_SHARE = 0.8


@dataclass
class _Binding:
    name: str  # alias or table name
    info: Any  # TableInfo
    #: the table's columns the statement reads, in schema order; None
    #: means all of them (``SELECT *``, DML)
    columns: Optional[tuple] = None
    #: references to each column in the statement (empty: not counted)
    refs: Counter = field(default_factory=Counter)


@dataclass
class _Constraint:
    column: str
    op: str  # = < <= > >=
    value: Any
    #: ordinal of the ``?`` placeholder when the comparison value is a
    #: statement parameter (value is then a ParamMarker resolved by the
    #: scan at execution time); None for literal constraints
    param: Optional[int] = None


class Planner:
    def __init__(
        self,
        catalog: Catalog,
        subquery_executor=None,
        spill=None,
    ):
        self.catalog = catalog
        #: callable(Select) -> list[tuple]; installed by the QueryEngine.
        #: Uncorrelated subqueries are executed (through the same verified
        #: pipeline) at planning time and folded into the outer plan.
        self.subquery_executor = subquery_executor
        #: optional SpillManager: materializing operators overflow their
        #: intermediate state into verifiable storage (Section 5.4)
        self.spill = spill

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def plan_select(
        self, stmt: Select, join_hint: Optional[str] = None
    ) -> PhysicalOp:
        if join_hint is not None and join_hint not in JOIN_HINTS:
            raise PlanningError(
                f"unknown join hint {join_hint!r}; use one of {JOIN_HINTS}"
            )
        stmt = self._resolve_statement_subqueries(stmt)
        bindings = self._bind_tables(stmt)
        self._bind_columns(stmt, bindings)
        # WHERE conjuncts and *inner*-join ON conjuncts form one pool and
        # may be pushed freely; a LEFT JOIN's ON condition stays with its
        # join (pushing it, or pulling WHERE predicates into it, changes
        # which rows get NULL-extended).
        conjuncts = list(split_conjuncts(stmt.where))
        outer_conditions: dict[str, Optional[Expr]] = {}
        for join in stmt.joins:
            if join.outer:
                outer_conditions[join.table.binding] = join.condition
            else:
                conjuncts.extend(split_conjuncts(join.condition))

        # classify conjuncts by the set of bindings they touch
        remaining: list[tuple[Expr, frozenset[str]]] = []
        for conjunct in conjuncts:
            touched = self._bindings_of(conjunct, bindings)
            remaining.append((conjunct, touched))

        plan: Optional[PhysicalOp] = None
        joined: set[str] = set()
        for position, binding in enumerate(bindings):
            if binding.name in outer_conditions:
                if plan is None:
                    raise PlanningError(
                        "LEFT JOIN needs a left-hand input"
                    )
                # WHERE conjuncts touching this binding stay in the pool
                # and apply above the join (post-NULL-extension semantics)
                plan = self._plan_outer_join(
                    plan, binding, outer_conditions[binding.name], joined
                )
                joined.add(binding.name)
                continue
            local = [
                c for c, refs in remaining if refs == frozenset({binding.name})
            ]
            remaining = [
                (c, refs)
                for c, refs in remaining
                if refs != frozenset({binding.name})
            ]
            if plan is None:
                plan = self._access_path(binding, local, stmt.order_by)
                joined.add(binding.name)
                continue
            # conjuncts that become applicable once this binding joins
            applicable = [
                c
                for c, refs in remaining
                if refs and refs <= joined | {binding.name} and binding.name in refs
            ]
            remaining = [
                (c, refs) for c, refs in remaining if c not in applicable
            ]
            plan = self._plan_join(
                plan, binding, local, applicable, join_hint, joined
            )
            joined.add(binding.name)
        assert plan is not None

        # anything left (e.g. constant predicates) applies on top
        for conjunct, _ in remaining:
            plan = FilterOp(plan, conjunct)

        plan, agg_output_map = self._plan_aggregation(plan, stmt)
        plan = self._plan_projection_order_limit(plan, stmt, agg_output_map)
        return self._fuse_pipelines(plan)

    # ------------------------------------------------------------------
    # pipeline fusion (single-pass columnar scan→filter→project)
    # ------------------------------------------------------------------
    def _fuse_pipelines(self, plan: PhysicalOp) -> PhysicalOp:
        """Collapse Project/Filter chains over a base-table scan.

        ``Project(Filter*(scan))``, ``Filter+(scan)`` and
        ``Project(scan)`` — where the scan is a SeqScan or RangeScan —
        become one :class:`FusedScanFilterProjectOp` that filters and
        projects each scan batch in a single columnar pass. The scan
        itself stays a child node (verified reads and Figure-12 scan
        attribution are unchanged); point lookups return at most one
        row, so fusing over them buys nothing and they are left alone.
        The rewrite runs after all order/limit decisions, so the
        interesting-order bookkeeping those decisions used is already
        settled.
        """
        project = plan if isinstance(plan, ProjectOp) else None
        node = plan if project is None else plan.children[0]
        filters: list[FilterOp] = []
        while isinstance(node, FilterOp):
            filters.append(node)
            node = node.children[0]
        if isinstance(node, (SeqScanOp, RangeScanOp)) and (
            filters or project is not None
        ):
            filters.reverse()
            return FusedScanFilterProjectOp(node, filters, project)
        plan.children = [
            self._fuse_pipelines(child) for child in plan.children
        ]
        return plan

    # ------------------------------------------------------------------
    # uncorrelated subqueries (resolved at plan time)
    # ------------------------------------------------------------------
    def _resolve_statement_subqueries(self, stmt: Select) -> Select:
        """Fold every subquery in the statement into literal values.

        Correlated subqueries are not supported: the inner SELECT is
        planned in its own scope, so a reference to an outer column
        surfaces as an unknown-column planning error.
        """
        return map_children(stmt, self.resolve_subqueries)

    def resolve_subqueries(self, expr: Expr) -> Expr:
        """Rewrite subquery nodes into literals / materialized sets."""
        if isinstance(expr, SUBQUERY_NODES):
            return self._fold_subquery(expr)
        return map_children(expr, self.resolve_subqueries)

    def _fold_subquery(self, expr: Expr) -> Expr:
        """Execute one subquery node and return what stands in for it."""
        rows = self._execute_subquery(expr.select)
        if isinstance(expr, ExistsSubquery):
            exists = bool(rows)
            return Literal((not exists) if expr.negated else exists)
        if isinstance(expr, InSubquery):
            if rows and len(rows[0]) != 1:
                raise PlanningError("IN subquery must return one column")
            values = {row[0] for row in rows}
            had_null = None in values
            values.discard(None)
            return InSet(
                self.resolve_subqueries(expr.operand),
                frozenset(values),
                had_null,
                expr.negated,
            )
        if rows and len(rows[0]) != 1:
            raise PlanningError("scalar subquery must return one column")
        if len(rows) > 1:
            raise PlanningError(f"scalar subquery returned {len(rows)} rows")
        return Literal(rows[0][0] if rows else None)

    def _execute_subquery(self, select: Select) -> list[tuple]:
        if self.subquery_executor is None:
            raise PlanningError(
                "this planner has no subquery executor; nested queries "
                "require planning through the QueryEngine"
            )
        return self.subquery_executor(select)

    # ------------------------------------------------------------------
    # table binding & column ownership
    # ------------------------------------------------------------------
    def _bind_tables(self, stmt: Select) -> list[_Binding]:
        refs = list(stmt.tables) + [join.table for join in stmt.joins]
        bindings: list[_Binding] = []
        seen: set[str] = set()
        for ref in refs:
            name = ref.binding
            if name in seen:
                raise PlanningError(f"duplicate table binding {name!r}")
            seen.add(name)
            bindings.append(_Binding(name, self.catalog.lookup(ref.name)))
        return bindings

    def _bind_columns(self, stmt: Select, bindings: list[_Binding]) -> None:
        """Record on each binding the columns the statement reads.

        Everything above the scans resolves columns by name against the
        scans' output, so whatever any clause references must be in the
        set: select list, WHERE, GROUP BY, HAVING, ORDER BY, join
        conditions. An ORDER BY name that matches a select-list output
        is that output (see ``_plan_projection_order_limit``), not a
        table column.
        """
        if stmt.star:
            return
        outputs = _output_names(stmt)
        table_order = [
            item for item in stmt.order_by if not _names_output(item.expr, outputs)
        ]
        if len(table_order) < len(stmt.order_by):
            stmt = replace(stmt, order_by=table_order)
        read: dict[str, Counter] = {binding.name: Counter() for binding in bindings}
        for node in walk(stmt):
            if isinstance(node, ColumnRef):
                read[self._owner(node, bindings)][node.name] += 1
        for binding in bindings:
            names = binding.info.schema.column_names
            counts = read[binding.name]
            binding.refs = counts
            if len(counts) < len(names):
                binding.columns = tuple(name for name in names if name in counts)

    def _bindings_of(
        self, expr: Expr, bindings: list[_Binding]
    ) -> frozenset[str]:
        touched: set[str] = set()
        for ref in referenced_columns(expr):
            touched.add(self._owner(ref, bindings))
        return frozenset(touched)

    @staticmethod
    def _owner(ref: ColumnRef, bindings: list[_Binding]) -> str:
        if ref.qualifier is not None:
            for binding in bindings:
                if binding.name == ref.qualifier:
                    if not binding.info.schema.has_column(ref.name):
                        raise PlanningError(f"unknown column {ref!r}")
                    return binding.name
            raise PlanningError(f"unknown table qualifier {ref.qualifier!r}")
        owners = [
            b.name for b in bindings if b.info.schema.has_column(ref.name)
        ]
        if not owners:
            raise PlanningError(f"unknown column {ref.name!r}")
        if len(owners) > 1:
            raise PlanningError(f"ambiguous column {ref.name!r}")
        return owners[0]

    # ------------------------------------------------------------------
    # access-path selection
    # ------------------------------------------------------------------
    def _access_path(
        self, binding: _Binding, conjuncts: list[Expr], order_by=()
    ) -> PhysicalOp:
        table = binding.info.store
        schema = binding.info.schema
        constraints: list[_Constraint] = []
        #: the conjunct each constraint came from (each reads its column once)
        origins: list[int] = []
        residual: list[Expr] = []
        for position, conjunct in enumerate(conjuncts):
            extracted = self._sargable(conjunct, schema)
            if extracted:
                constraints.extend(extracted)
                origins += [position] * len(extracted)
                # equality/range info is fully captured by the bounds for
                # single constraints; Between expands to two constraints
                continue
            residual.append(conjunct)

        plan: PhysicalOp
        chosen = self._choose_constraint_column(schema, constraints)
        if chosen is None:
            plan = SeqScanOp(table, binding.name, binding.columns)
            used: set[int] = set()
        else:
            column, indexes = chosen
            columns = binding.columns
            equality_index = next(
                (i for i in indexes if constraints[i].op == "="), None
            )
            if equality_index is not None:
                # Use one equality for the access path; every OTHER
                # constraint on this column (further equalities, bounds)
                # stays a residual filter — absorbing them here would
                # silently drop contradictions like ``a = 1 AND a = 0``.
                equality = constraints[equality_index].value
                used = {equality_index}
                if _only_readers(binding, column, indexes, used, origins):
                    columns = tuple(c for c in columns or schema.column_names if c != column)
                if column == schema.primary_key:
                    plan = PointLookupOp(table, binding.name, equality, columns)
                else:
                    plan = RangeScanOp(
                        table,
                        binding.name,
                        column,
                        equality,
                        equality,
                        columns=columns,
                    )
            else:
                # bounds combine exactly: the tightest of each side wins.
                # Parameter bounds have no plan-time value to compare
                # against, so they are never merged — they stay residual
                # filters (rebuilt with their ``?`` below), keeping one
                # cached template correct for every binding.
                lo, hi = None, None
                include_lo = include_hi = True
                used = set()
                for i in indexes:
                    con = constraints[i]
                    if con.param is not None:
                        continue
                    if con.op in (">", ">="):
                        candidate = (con.value, con.op == ">=")
                        if lo is None or (candidate[0], not candidate[1]) > (
                            lo,
                            not include_lo,
                        ):
                            lo, include_lo = candidate
                        used.add(i)
                    elif con.op in ("<", "<="):
                        candidate = (con.value, con.op == "<=")
                        if hi is None or (candidate[0], candidate[1]) < (
                            hi,
                            include_hi,
                        ):
                            hi, include_hi = candidate
                        used.add(i)
                if _only_readers(binding, column, indexes, used, origins):
                    columns = tuple(c for c in columns or schema.column_names if c != column)
                plan = RangeScanOp(
                    table,
                    binding.name,
                    column,
                    lo,
                    hi,
                    include_lo,
                    include_hi,
                    columns=columns,
                )
                share = self._wide_share(plan, order_by)
                if share is not None:  # every bound comes back as a filter
                    plan = SeqScanOp(table, binding.name, binding.columns, (column, share))
                    used = set()
        # constraints on other columns stay as ordinary filters
        for i, constraint in enumerate(constraints):
            if i in used:
                continue
            value_expr: Expr = (
                Parameter(constraint.param)
                if constraint.param is not None
                else Literal(constraint.value)
            )
            residual.append(
                BinaryOp(
                    constraint.op,
                    ColumnRef(constraint.column, binding.name),
                    value_expr,
                )
            )
        for conjunct in residual:
            plan = FilterOp(plan, conjunct)
        return plan

    def _wide_share(self, scan: RangeScanOp, order_by) -> Optional[float]:
        """A secondary-chain range scan's estimated share of its table if
        over ``SEQ_SCAN_SHARE`` and no ORDER BY rides its chain, else None.
        A lying index costs time, never an answer: both paths verify."""
        table = scan.table
        estimate = getattr(table, "estimate_rows", None)  # a shard proxy has none
        if (
            estimate is None
            or scan.column == table.schema.primary_key
            or table.page_count() <= 1
            or (order_by and self._order_satisfied(scan, order_by[:1]))
        ):
            return None
        rows = estimate(scan.column, scan.lo, scan.hi, scan.include_lo, scan.include_hi)
        share = rows / max(table.row_count, 1)
        return share if share > SEQ_SCAN_SHARE else None

    @staticmethod
    def _sargable(expr: Expr, schema) -> list[_Constraint]:
        """Extract index-usable constraints from one conjunct, if any.

        Comparison values may be literals or ``?`` parameters: a
        parameter constraint carries a :class:`ParamMarker` that the
        scan operator resolves against the bound values at execution
        time, so one cached plan template serves every binding.
        """

        def as_col_val(e: Expr):
            """(op, column, value, param_index) for col-vs-value, else None."""
            if isinstance(e, BinaryOp) and isinstance(e.left, ColumnRef):
                if isinstance(e.right, Literal):
                    return e.op, e.left, e.right.value, None
                if isinstance(e.right, Parameter):
                    index = e.right.index
                    return e.op, e.left, ParamMarker(index), index
            if isinstance(e, BinaryOp) and isinstance(e.right, ColumnRef):
                if isinstance(e.left, Literal):
                    return _FLIP.get(e.op), e.right, e.left.value, None
                if isinstance(e.left, Parameter):
                    index = e.left.index
                    return _FLIP.get(e.op), e.right, ParamMarker(index), index
            return None

        if isinstance(expr, Between) and not expr.negated:
            if (
                isinstance(expr.operand, ColumnRef)
                and isinstance(expr.low, Literal)
                and isinstance(expr.high, Literal)
                and schema.chain_id(expr.operand.name) is not None
            ):
                return [
                    _Constraint(expr.operand.name, ">=", expr.low.value),
                    _Constraint(expr.operand.name, "<=", expr.high.value),
                ]
            return []
        simple = as_col_val(expr)
        if simple is None:
            return []
        op, col, value, param = simple
        if op not in ("=", "<", "<=", ">", ">="):
            return []
        if param is None and value is None:
            return []  # literal NULL comparisons never match
        if schema.chain_id(col.name) is not None:
            return [_Constraint(col.name, op, value, param)]
        return []

    @staticmethod
    def _choose_constraint_column(schema, constraints: list[_Constraint]):
        """Pick the most selective constrained chained column."""
        by_column: dict[str, list[int]] = {}
        for i, con in enumerate(constraints):
            by_column.setdefault(con.column, []).append(i)
        best = None
        best_score = -1
        for column, indexes in by_column.items():
            ops = {constraints[i].op for i in indexes}
            if "=" in ops:
                score = 4 if column == schema.primary_key else 3
            elif (ops & {">", ">="}) and (ops & {"<", "<="}):
                score = 2
            else:
                score = 1
            if score > best_score:
                best_score = score
                best = (column, indexes)
        return best

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def _plan_join(
        self,
        left: PhysicalOp,
        binding: _Binding,
        local: list[Expr],
        applicable: list[Expr],
        join_hint: Optional[str],
        joined: set[str],
    ) -> PhysicalOp:
        # split the applicable conjuncts into equi-key pairs and residual
        left_keys: list[Expr] = []
        right_keys: list[Expr] = []
        residual: list[Expr] = []
        for conjunct in applicable:
            pair = self._equi_pair(conjunct, binding, joined)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
            else:
                residual.append(conjunct)
        residual_expr = _and_all(residual)

        hint = join_hint
        if hint == "index_nl" or (
            hint is None
            and len(right_keys) == 1
            and isinstance(right_keys[0], ColumnRef)
            and right_keys[0].name == binding.info.schema.primary_key
        ):
            if (
                len(right_keys) == 1
                and isinstance(right_keys[0], ColumnRef)
                and right_keys[0].name == binding.info.schema.primary_key
            ):
                inner_residual = _and_all(local + residual)
                return IndexNestedLoopJoinOp(
                    left,
                    binding.info.store,
                    binding.name,
                    left_keys[0],
                    inner_residual,
                )
            if hint == "index_nl":
                raise PlanningError(
                    "index_nl join requires a single equality on the inner "
                    "table's primary key"
                )
        right = self._access_path(binding, local)
        if not left_keys:
            return NestedLoopJoinOp(
                left, right, [], [], residual_expr, spill=self.spill
            )
        if hint == "merge":
            return MergeJoinOp(
                left, right, left_keys, right_keys, residual_expr,
                spill=self.spill,
            )
        if hint == "nested_loop":
            return NestedLoopJoinOp(
                left, right, left_keys, right_keys, residual_expr,
                spill=self.spill,
            )
        return HashJoinOp(left, right, left_keys, right_keys, residual_expr)

    def _plan_outer_join(
        self,
        left: PhysicalOp,
        binding: _Binding,
        condition: Optional[Expr],
        joined: set[str],
    ) -> PhysicalOp:
        """LEFT OUTER JOIN: the ON condition decides matching only.

        Right-side-only ON conjuncts are pushed into the right input
        (legal: they restrict which right rows can match); everything
        else — including left-side-only conjuncts — participates in the
        per-pair match test, never filtering left rows outright.
        """
        conjuncts = split_conjuncts(condition)
        right_local: list[Expr] = []
        match_conjuncts: list[Expr] = []
        for conjunct in conjuncts:
            try:
                refs = self._bindings_of(conjunct, [binding])
                only_right = refs == frozenset({binding.name})
            except PlanningError:
                only_right = False  # touches columns outside this binding
            if only_right:
                right_local.append(conjunct)
            else:
                match_conjuncts.append(conjunct)
        right = self._access_path(binding, right_local)
        left_keys: list[Expr] = []
        right_keys: list[Expr] = []
        residual: list[Expr] = []
        for conjunct in match_conjuncts:
            pair = self._equi_pair(conjunct, binding, joined)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
            else:
                residual.append(conjunct)
        residual_expr = _and_all(residual)
        if left_keys:
            return HashJoinOp(
                left, right, left_keys, right_keys, residual_expr,
                spill=self.spill, left_outer=True,
            )
        return NestedLoopJoinOp(
            left, right, [], [], residual_expr,
            spill=self.spill, left_outer=True,
        )

    def _equi_pair(self, conjunct: Expr, binding: _Binding, joined: set[str]):
        """Return (left_expr, right_expr) for an equi-join conjunct."""
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None
        sides = [conjunct.left, conjunct.right]
        side_bindings = []
        for side in sides:
            refs = referenced_columns(side)
            if not refs:
                return None
            owners = set()
            for ref in refs:
                if ref.qualifier is not None:
                    owners.add(ref.qualifier)
                else:
                    return None  # unqualified in joins: keep as residual
            side_bindings.append(owners)
        left_side, right_side = side_bindings
        if left_side <= joined and right_side == {binding.name}:
            return sides[0], sides[1]
        if right_side <= joined and left_side == {binding.name}:
            return sides[1], sides[0]
        return None

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _plan_aggregation(self, plan: PhysicalOp, stmt: Select):
        """Insert a HashAggregate if the query is grouped/aggregated.

        Returns (plan, mapping) where mapping rewrites the original
        expressions (group keys and aggregate calls) into column
        references over the aggregate output; mapping is None when the
        query is not aggregated.
        """
        aggregates: list[Aggregate] = []
        for item in stmt.items:
            aggregates.extend(find_aggregates(item.expr))
        if stmt.having is not None:
            aggregates.extend(find_aggregates(stmt.having))
        for item in stmt.order_by:
            aggregates.extend(find_aggregates(item.expr))
        if not aggregates and not stmt.group_by:
            return plan, None
        if stmt.star:
            raise PlanningError("SELECT * is not valid in a grouped query")
        # deduplicate aggregates structurally
        unique_aggs: list[Aggregate] = []
        for agg in aggregates:
            if agg not in unique_aggs:
                unique_aggs.append(agg)
        group_exprs = list(stmt.group_by)
        names = [f"__g{i}" for i in range(len(group_exprs))] + [
            f"__a{i}" for i in range(len(unique_aggs))
        ]
        plan = HashAggregateOp(plan, group_exprs, unique_aggs, names)
        mapping: dict[Expr, Expr] = {}
        for i, expr in enumerate(group_exprs):
            mapping[expr] = ColumnRef(f"__g{i}")
        for i, agg in enumerate(unique_aggs):
            mapping[agg] = ColumnRef(f"__a{i}")
        if stmt.having is not None:
            plan = FilterOp(plan, substitute(stmt.having, mapping))
        return plan, mapping

    # ------------------------------------------------------------------
    # projection / order / limit
    # ------------------------------------------------------------------
    def _plan_projection_order_limit(
        self,
        plan: PhysicalOp,
        stmt: Select,
        agg_map: Optional[dict[Expr, Expr]],
    ) -> PhysicalOp:
        order_items = list(stmt.order_by)
        if stmt.star:
            if stmt.distinct:
                plan = DistinctOp(plan)
            if order_items and self._order_satisfied(plan, order_items):
                order_items = []  # the chain scan already emits this order
            if order_items and stmt.limit is not None:
                return TopNOp(plan, order_items, stmt.limit)
            if order_items:
                plan = SortOp(plan, order_items, spill=self.spill)
            if stmt.limit is not None:
                plan = LimitOp(plan, stmt.limit)
            return plan

        exprs: list[Expr] = []
        names = _output_names(stmt)
        for item in stmt.items:
            expr = item.expr
            if agg_map is not None:
                expr = substitute(expr, agg_map)
            exprs.append(expr)

        # ORDER BY may reference select aliases or pre-projection columns;
        # all keys must sort together, so alias references are expanded to
        # their select expressions and the whole sort runs below the
        # projection.
        sort_items: list[OrderItem] = []
        for item in order_items:
            expr = item.expr
            if _names_output(expr, names):
                expr = exprs[names.index(expr.name)]
            elif agg_map is not None:
                expr = substitute(expr, agg_map)
            sort_items.append(OrderItem(expr, item.ascending))
        # a chain scan may already deliver the requested order
        if sort_items and self._order_satisfied(plan, sort_items):
            sort_items = []
        # ORDER BY + LIMIT without DISTINCT fuses into a Top-N heap
        # (DISTINCT must deduplicate before the limit applies, which
        # breaks the fusion).
        if sort_items and stmt.limit is not None and not stmt.distinct:
            plan = TopNOp(plan, sort_items, stmt.limit)
            return ProjectOp(plan, exprs, names)
        if sort_items:
            plan = SortOp(plan, sort_items, spill=self.spill)
        # a point lookup already emitting exactly the select list is not projected
        if not (
            isinstance(plan, PointLookupOp)
            and plan.output.names == names
            and all(isinstance(e, ColumnRef) and e.name == n for e, n in zip(exprs, names))
        ):
            plan = ProjectOp(plan, exprs, names)
        if stmt.distinct:
            plan = DistinctOp(plan)
        if stmt.limit is not None:
            plan = LimitOp(plan, stmt.limit)
        return plan

    @staticmethod
    def _order_satisfied(plan: PhysicalOp, sort_items: list[OrderItem]) -> bool:
        """Whether the plan's interesting order already covers the sort.

        Chain scans emit rows in key order; if the requested ORDER BY is
        a prefix-match of that order (same columns, same directions),
        the sort is redundant and is elided.
        """
        if len(sort_items) > len(plan.ordering):
            return False
        for item, (qualifier, name, ascending) in zip(
            sort_items, plan.ordering
        ):
            if not isinstance(item.expr, ColumnRef):
                return False
            if item.ascending != ascending:
                return False
            try:
                wanted = plan.output.resolve(item.expr)
                provided = plan.output.resolve(ColumnRef(name, qualifier))
            except PlanningError:
                return False
            if wanted != provided:
                return False
        return True

    # ------------------------------------------------------------------
    # helper reused by DML: plan a filtered scan of one table
    # ------------------------------------------------------------------
    def plan_table_filter(self, table_name: str, where: Optional[Expr]) -> PhysicalOp:
        info = self.catalog.lookup(table_name)
        binding = _Binding(info.name, info)
        if where is not None:
            where = self.resolve_subqueries(where)
        conjuncts = split_conjuncts(where)
        for conjunct in conjuncts:
            self._bindings_of(conjunct, [binding])  # validates columns
        return self._fuse_pipelines(self._access_path(binding, conjuncts))


def _only_readers(
    binding: _Binding,
    column: str,
    indexes: list[int],
    used: set[int],
    origins: list[int],
) -> bool:
    """Whether the constraints the access path absorbed on ``column``
    are the statement's only references to it: every constraint on it
    absorbed (a leftover comes back as a filter reading it), and no
    reference anywhere but in their conjuncts."""
    if not set(indexes) <= used:
        return False
    return binding.refs[column] == len({origins[i] for i in indexes})


def _output_names(stmt: Select) -> list[str]:
    """The select list's output column names, in order."""
    names: list[str] = []
    for i, item in enumerate(stmt.items):
        if item.alias:
            names.append(item.alias)
        elif isinstance(item.expr, ColumnRef):
            names.append(item.expr.name)
        else:
            names.append(f"col{i}")
    return names


def _names_output(expr: Expr, names: list[str]) -> bool:
    """Whether an ORDER BY key is a select-list output, not a table column."""
    return (
        isinstance(expr, ColumnRef)
        and expr.qualifier is None
        and expr.name in names
    )


def _and_all(conjuncts: list[Expr]) -> Optional[Expr]:
    expr: Optional[Expr] = None
    for conjunct in conjuncts:
        expr = conjunct if expr is None else BinaryOp("AND", expr, conjunct)
    return expr
