"""Statement execution.

:class:`QueryEngine` is the enclave-resident engine of Figure 2: it
compiles (plans) statements and drives the volcano operators. DML and
DDL act directly on the verifiable tables through the catalog.

Statement text submitted as a string flows through the schema-versioned
plan cache (:mod:`repro.sql.plan_cache`): repeated statement shapes —
including every :class:`PreparedStatement` execution — skip the lexer,
parser and planner entirely, running the cached plan template as it is
with the ``?`` parameters bound for the duration of the execution. A
plan node holds nothing a run produces; a run's numbers live in the run
ledger (:class:`~repro.obs.trace_context.TraceContext`), which exists
when someone is looking: an entered context (``explain_analyze``, portal
sampling, a worker's segment) or a real metrics registry, for which
:meth:`QueryEngine._metered` opens one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.catalog.catalog import Catalog, TableInfo
from repro.catalog.schema import schema_from_ddl
from repro.errors import ExecutionError, PlanningError
from repro.obs import default_registry
from repro.obs.trace_context import IDLE_FRAME, TraceContext, current_trace
from repro.sql.ast_nodes import (
    CreateTable,
    Delete,
    DropTable,
    Explain,
    Insert,
    Select,
    Statement,
    Update,
)
from repro.sql.expressions import RowSchema, compile_expr
from repro.sql.operators import FusedScanFilterProjectOp
from repro.sql.operators.base import PhysicalOp
from repro.sql.params import bind as bind_params, unbind as unbind_params
from repro.sql.parser import parse_statement, parse_statement_with_params
from repro.sql.plan_cache import (
    CacheEntry,
    PlanCache,
    normalize_sql,
    statement_has_subqueries,
)
from repro.sql.planner import Planner
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable


@dataclass
class ExecutionResult:
    """Rows plus execution metadata for one statement."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    #: the (immutable, possibly cached) plan that ran
    plan: Optional[PhysicalOp] = None

    def explain(self) -> str:
        return "" if self.plan is None else self.plan.explain()


def scan_split(plan: PhysicalOp, trace: TraceContext) -> tuple[float, float]:
    """Figure 12: one run's (scan-node, other-node) self seconds.

    Scan nodes are the operators that touch untrusted memory; the inner
    lookups of an index-nested-loop join count with them.
    """
    scan = other = 0.0
    for op in plan.walk():
        frame = trace.op_stats_if_traced(op) or IDLE_FRAME
        scan += frame.inner_seconds
        if op.is_scan:
            scan += frame.self_seconds
        else:
            other += frame.self_seconds - frame.inner_seconds
    return scan, max(0.0, other)


class QueryEngine:
    """Parses, plans and executes SQL against a catalog of tables."""

    def __init__(
        self,
        catalog: Catalog,
        storage: StorageEngine,
        epc=None,
        select_planner=None,
    ):
        """``select_planner(stmt, join_hint)`` replaces the planner's own
        SELECT planning for every top-level SELECT (a sharded
        coordinator plans pushed-down scatter-gather templates there)."""
        self.catalog = catalog
        self.storage = storage
        self.obs = storage.obs if storage is not None else default_registry()
        self._ctr_statements = self.obs.counter("sql.statements")
        self._ctr_cache_hits = self.obs.counter("sql.plan_cache_hits")
        self._ctr_cache_misses = self.obs.counter("sql.plan_cache_misses")
        self._ctr_cache_invalidations = self.obs.counter(
            "sql.plan_cache_invalidations"
        )
        self._ctr_cross_tenant_hits = self.obs.counter(
            "sql.plan_cache_cross_tenant_hits"
        )
        self._ctr_parsed = self.obs.counter("sql.statements_parsed")
        self._ctr_planned = self.obs.counter("sql.statements_planned")
        self._ctr_fused_batches = self.obs.counter("sql.fused_pipeline_batches")
        self._hist_execute = self.obs.histogram("sql.execute_seconds")
        self.plan_cache = PlanCache(
            storage.config.plan_cache_size if storage is not None else 0
        )
        spill = None
        if storage.config.spill_threshold_rows is not None:
            from repro.sql.spill import SpillManager

            spill = SpillManager(
                storage, storage.config.spill_threshold_rows, epc=epc
            )
        self.spill = spill
        self.planner = Planner(
            catalog,
            subquery_executor=lambda select: self._run_select(select, None).rows,
            spill=spill,
        )
        self._plan_select = select_planner or self.planner.plan_select
        from repro.sql.session import TxnLockRegistry

        #: the table locks every :class:`~repro.sql.session.Session` on
        #: this engine shares
        self.txn_locks = TxnLockRegistry()

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    def statement_entry(
        self,
        sql: str,
        join_hint: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> CacheEntry:
        """Resolve statement text to a (possibly cached) entry."""
        key = (normalize_sql(sql), join_hint)
        return self._cached_entry(
            key,
            lambda _stale: self._build_entry(key[0], sql, join_hint, tenant),
            tenant,
        )

    def fragment_entry(
        self,
        fragment_id: int,
        param_count: int,
        stmt: Optional[Statement] = None,
    ) -> Optional[CacheEntry]:
        """The cached plan of a statement its sender numbered ``fragment_id``.

        A sharded coordinator ships a pushed-down fragment's AST only
        when this engine lacks the id; the plan is then cached under
        ``("fragment", id)`` beside the statement-text entries. None
        means the id is neither cached nor supplied. A stale stamp
        re-plans from the stored AST.
        """

        def build(stale: Optional[CacheEntry]) -> Optional[CacheEntry]:
            source = stmt if stmt is not None else getattr(stale, "stmt", None)
            if source is None:
                return None
            return self._plan_entry(
                source, param_count, self.catalog.schema_version
            )

        return self._cached_entry(("fragment", fragment_id), build)

    def _cached_entry(self, key, build, tenant: Optional[str] = None):
        """The single hit/miss accounting point of the plan cache.

        A valid cached entry counts one ``sql.plan_cache_hits``;
        building an entry for a query/DML statement counts one
        ``sql.plan_cache_misses`` (control statements — EXPLAIN,
        transaction control, DDL — are never cached and count neither).
        A cached entry whose schema version no longer matches the
        catalog is discarded (one ``sql.plan_cache_invalidations``) and
        ``build(stale_entry)`` replaces it.
        """
        entry = self.plan_cache.get(key)
        if entry is not None:
            if entry.schema_version == self.catalog.schema_version:
                self._ctr_cache_hits.inc()
                # one cache serves every tenant (plans carry statement
                # shape, never tenant data); count the shared hits
                if (
                    tenant is not None
                    and entry.tenant is not None
                    and entry.tenant != tenant
                ):
                    self._ctr_cross_tenant_hits.inc()
                return entry
            self._ctr_cache_invalidations.inc()
            self.plan_cache.invalidate(key)
        entry = build(entry)
        if entry is None:
            return None
        if isinstance(entry.stmt, (Select, Insert, Update, Delete)):
            self._ctr_cache_misses.inc()
        self.plan_cache.put(key, entry)  # no-op unless entry.cacheable
        return entry

    def _build_entry(
        self,
        normalized: str,
        sql: str,
        join_hint: Optional[str],
        tenant: Optional[str] = None,
    ) -> CacheEntry:
        # the version is read *before* parse/plan: a concurrent DDL can
        # only make the stamp too old (entry discarded on next lookup),
        # never newer than the catalog state the plan was built against
        version = self.catalog.schema_version
        stmt, param_count = parse_statement_with_params(sql)
        self._ctr_parsed.inc()
        return self._plan_entry(
            stmt, param_count, version, normalized, join_hint, tenant
        )

    def _plan_entry(
        self,
        stmt: Statement,
        param_count: int,
        version: int,
        normalized: str = "",
        join_hint: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> CacheEntry:
        cacheable = isinstance(
            stmt, (Select, Insert, Update, Delete)
        ) and not statement_has_subqueries(stmt)
        select_template = filter_template = None
        if cacheable and isinstance(stmt, (Select, Update, Delete)):
            plan = self._plan_now(stmt, join_hint)
            if isinstance(stmt, Select):
                select_template = plan
            else:
                filter_template = plan
        return CacheEntry(
            sql=normalized,
            stmt=stmt,
            param_count=param_count,
            join_hint=join_hint,
            schema_version=version,
            cacheable=cacheable,
            select_template=select_template,
            filter_template=filter_template,
            tenant=tenant,
        )

    def prepare(
        self, sql: str, join_hint: Optional[str] = None
    ) -> "PreparedStatement":
        """Parse and plan once; execute many times with bound values."""
        return PreparedStatement(self, sql, join_hint)

    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        join_hint: Optional[str] = None,
        undo: Optional[list] = None,
        params: Optional[tuple] = None,
        tenant: Optional[str] = None,
    ) -> ExecutionResult:
        """Run one statement.

        ``undo`` (used by :class:`~repro.sql.session.Session`) collects
        one inverse callable per applied row change, appended in apply
        order, so a transaction can roll back by replaying it reversed.
        ``params`` binds the statement's ``?`` placeholders in order.
        ``tenant`` attributes plan-cache accounting (cross-tenant hit
        counting) to the submitting tenant; execution is identical.
        Statement text goes through the plan cache.
        """
        entry = self.statement_entry(sql, join_hint, tenant=tenant)
        return self.execute_prepared(entry, () if params is None else params, join_hint, undo)

    def execute_prepared(
        self,
        entry: CacheEntry,
        params: tuple = (),
        join_hint: Optional[str] = None,
        undo: Optional[list] = None,
    ) -> ExecutionResult:
        """Run a resolved statement entry with ``params`` bound.

        The caller has already gone through :meth:`statement_entry`
        (which did the hit/miss accounting); no re-parsing or cache
        counting happens here.
        """
        values = tuple(params)
        if len(values) != entry.param_count:
            raise ExecutionError(
                f"statement has {entry.param_count} parameter(s); "
                f"{len(values)} value(s) bound"
            )
        token = bind_params(values)
        try:
            if self.obs.enabled:
                return self._metered(entry, join_hint, undo)
            return self._dispatch_entry(entry, join_hint, undo)
        finally:
            unbind_params(token)

    def _metered(self, entry: CacheEntry, join_hint, undo) -> ExecutionResult:
        """Per-statement metrics envelope, for a real registry.

        The run needs a ledger to read its plan metrics from: the one a
        caller entered to look at this run, or else one opened here
        (another engine's own ledger — an in-process coordinator's — is
        not this engine's to book to).
        """
        self._ctr_statements.inc()
        trace = current_trace()
        start = perf_counter()
        try:
            if trace is None or not trace.sampled:
                with TraceContext(qid="", sampled=False) as trace:
                    result = self._dispatch_entry(entry, join_hint, undo)
            else:
                result = self._dispatch_entry(entry, join_hint, undo)
        finally:
            self._hist_execute.observe(perf_counter() - start)
        if result.plan is not None:
            self._record_plan_metrics(result.plan, trace)
        return result

    def _dispatch_entry(
        self,
        entry: CacheEntry,
        join_hint: Optional[str],
        undo: Optional[list],
    ) -> ExecutionResult:
        stmt = entry.stmt
        if isinstance(stmt, Select):
            plan = entry.select_template
            if plan is None:
                plan = self._plan_now(stmt, join_hint)
            return self._run_plan(plan)
        if isinstance(stmt, Explain):
            plan = self._plan_now(stmt.select, join_hint)
            rows = [(line,) for line in plan.explain().splitlines()]
            return ExecutionResult(
                columns=["plan"], rows=rows, rowcount=len(rows)
            )
        if isinstance(stmt, Insert):
            return self._run_insert(stmt, undo)
        if isinstance(stmt, (Update, Delete)):
            plan = entry.filter_template
            if plan is None:
                plan = self._plan_now(stmt, join_hint)
            if isinstance(stmt, Update):
                return self._run_update(stmt, plan, undo)
            return self._run_delete(stmt, plan, undo)
        if isinstance(stmt, CreateTable):
            return self._run_create(stmt)
        if isinstance(stmt, DropTable):
            return self._run_drop(stmt)
        raise ExecutionError(f"unsupported statement {type(stmt).__name__}")

    def _plan_now(self, stmt, join_hint: Optional[str]) -> PhysicalOp:
        """Plan a SELECT, or an UPDATE/DELETE's row filter."""
        self._ctr_planned.inc()
        if isinstance(stmt, Select):
            return self._plan_select(stmt, join_hint)
        return self.planner.plan_table_filter(stmt.table, stmt.where)

    def _record_plan_metrics(self, plan: PhysicalOp, trace: TraceContext) -> None:
        """Fold a drained plan's ledger frames into the registry.

        One latency histogram per operator class
        (``sql.op.<Name>.self_seconds``) plus the scan/other split the
        Figure 12 analysis uses.
        """
        for op in plan.walk():
            frame = trace.op_stats_if_traced(op) or IDLE_FRAME
            self.obs.histogram(
                f"sql.op.{type(op).__name__}.self_seconds"
            ).observe(frame.self_seconds)
            if isinstance(op, FusedScanFilterProjectOp):
                self._ctr_fused_batches.inc(frame.batches_out)
        scan, other = scan_split(plan, trace)
        self.obs.histogram("sql.scan_seconds").observe(scan)
        self.obs.histogram("sql.other_seconds").observe(other)

    def plan(self, sql: str, join_hint: Optional[str] = None) -> PhysicalOp:
        """Compile without executing (EXPLAIN support)."""
        stmt = parse_statement(sql)
        if not isinstance(stmt, Select):
            raise PlanningError("plan() only supports SELECT statements")
        return self.planner.plan_select(stmt, join_hint)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _run_select(self, stmt: Select, join_hint: Optional[str]) -> ExecutionResult:
        return self._run_plan(self.planner.plan_select(stmt, join_hint))

    def _run_plan(self, plan: PhysicalOp) -> ExecutionResult:
        # result assembly is a row-major boundary: the portal digests
        # rows, so each batch is transposed here, once
        rows: list[tuple] = []
        for batch in plan.timed_batches():
            rows += batch.rows
        return ExecutionResult(
            columns=plan.output.names, rows=rows, rowcount=len(rows), plan=plan
        )

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _run_insert(
        self, stmt: Insert, undo: Optional[list] = None
    ) -> ExecutionResult:
        info = self.catalog.lookup(stmt.table)
        schema = info.schema
        if stmt.select is not None:
            source_rows = self._run_select(stmt.select, None).rows
        else:
            empty = RowSchema([])
            source_rows = [
                tuple(compile_expr(e, empty)(()) for e in value_exprs)
                for value_exprs in stmt.rows
            ]
        pk_index = schema.primary_key_index
        count = 0
        for values in source_rows:
            if stmt.columns:
                if len(values) != len(stmt.columns):
                    raise ExecutionError(
                        "INSERT column list and source arity differ"
                    )
                row = schema.row_from_dict(dict(zip(stmt.columns, values)))
            else:
                row = schema.validate_row(values)
            info.store.insert(row)
            if undo is not None:
                undo.append(
                    lambda store=info.store, pk=row[pk_index]: store.delete(pk)
                )
            count += 1
        return ExecutionResult(rowcount=count)

    def _run_update(
        self, stmt: Update, plan: PhysicalOp, undo: Optional[list] = None
    ) -> ExecutionResult:
        info = self.catalog.lookup(stmt.table)
        schema = info.schema
        matching = [row for batch in plan.timed_batches() for row in batch.rows]
        assign_fns = [
            (column, compile_expr(expr, plan.output))
            for column, expr in stmt.assignments
        ]
        pk_index = schema.primary_key_index
        count = 0
        for row in matching:
            updates = {column: fn(row) for column, fn in assign_fns}
            if info.store.update(row[pk_index], updates):
                if undo is not None:
                    new_pk = updates.get(
                        schema.primary_key, row[pk_index]
                    )

                    def restore(store=info.store, new_pk=new_pk, old=row):
                        store.delete(new_pk)
                        store.insert(old)

                    undo.append(restore)
                count += 1
        return ExecutionResult(rowcount=count)

    def _run_delete(
        self, stmt: Delete, plan: PhysicalOp, undo: Optional[list] = None
    ) -> ExecutionResult:
        info = self.catalog.lookup(stmt.table)
        pk_index = info.schema.primary_key_index
        matching = [row for batch in plan.timed_batches() for row in batch.rows]
        count = 0
        for row in matching:
            if info.store.delete(row[pk_index]):
                if undo is not None:
                    undo.append(
                        lambda store=info.store, old=row: store.insert(old)
                    )
                count += 1
        return ExecutionResult(rowcount=count)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _run_create(self, stmt: CreateTable) -> ExecutionResult:
        schema = schema_from_ddl(stmt)
        store = VerifiableTable(stmt.name, schema, self.storage)
        self.catalog.register(TableInfo(stmt.name, schema, store))
        return ExecutionResult()

    def _run_drop(self, stmt: DropTable) -> ExecutionResult:
        info = self.catalog.drop(stmt.name)
        info.store.destroy()
        return ExecutionResult()


class PreparedStatement:
    """A statement parsed and planned once, executed many times.

    ``execute(params)`` binds the statement's ``?`` placeholders in
    order. Each execution revalidates the cached entry against the
    catalog's schema version, so a DDL between executions transparently
    replans instead of running a stale plan; when the entry is still
    valid the execution is a pure plan-cache hit (no lexing, parsing or
    planning).

    ``executor`` (used by :meth:`~repro.sql.session.Session.prepare`)
    reroutes execution through a wrapper — e.g. a transactional session
    that must take its table locks — and receives the resolved entry
    plus the bound values.
    """

    def __init__(
        self,
        engine: QueryEngine,
        sql: str,
        join_hint: Optional[str] = None,
        executor=None,
    ):
        self._engine = engine
        self.sql = sql
        self.join_hint = join_hint
        self._executor = executor
        entry = engine.statement_entry(sql, join_hint)
        self.param_count = entry.param_count

    def execute(self, params: tuple = ()) -> ExecutionResult:
        entry = self._engine.statement_entry(self.sql, self.join_hint)
        values = tuple(params)
        if self._executor is not None:
            return self._executor(entry, values)
        return self._engine.execute_prepared(
            entry, values, join_hint=self.join_hint
        )
