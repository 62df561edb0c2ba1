"""Multi-statement transactions (BEGIN / COMMIT / ROLLBACK).

The paper's prototype measures storage-operation workloads; a database a
user would adopt also needs statement grouping. This layer provides
serializable transactions over the verifiable storage with two classic
ingredients:

* **strict two-phase locking at table granularity** — a transaction
  takes a table's transaction lock at first touch (read or write) and
  holds it to commit/rollback. Coarse, but sound and simple to reason
  about; conflicts resolve by lock-timeout abort rather than deadlock
  detection.
* **undo logging** — every applied row change records its inverse
  (delete for insert, re-insert for delete, delete+re-insert for
  update); ROLLBACK replays the log in reverse *through the verified
  write path*, so an aborted transaction leaves the same evidence trail
  as any other sequence of writes and the memory checker stays
  consistent.

Scope notes (documented limitations): transactions isolate against
other :class:`Session` users of the same engine — direct
``engine.execute``/storage-API calls bypass the transaction locks; DDL
is not transactional and is rejected inside a transaction.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.errors import TransactionAborted, TransactionError
from repro.sql.ast_nodes import (
    Begin,
    Commit,
    CreateTable,
    Delete,
    DropTable,
    Insert,
    Rollback,
    Statement,
    TableRef,
    Update,
    walk,
)
from repro.sql.executor import ExecutionResult, PreparedStatement, QueryEngine
from repro.sql.plan_cache import CacheEntry


class TxnLockRegistry:
    """Per-engine registry of table transaction locks
    (:attr:`QueryEngine.txn_locks`, so it lives as long as its engine).

    Entries are evicted on ``DROP TABLE`` (see :meth:`evict`); without
    that, a workload that churns through temporary tables would grow the
    registry forever — one orphaned lock per dropped table.
    """

    def __init__(self):
        self._locks: dict[str, threading.Lock] = {}
        self._guard = threading.Lock()

    def lock_for(self, table: str) -> threading.Lock:
        key = table.lower()
        with self._guard:
            lock = self._locks.get(key)
            if lock is None:
                lock = threading.Lock()
                self._locks[key] = lock
            return lock

    def evict(self, table: str) -> None:
        """Forget a dropped table's lock.

        Safe while another session still holds the lock object: holders
        keep their own reference and release it normally; a re-created
        table of the same name simply gets a fresh lock.
        """
        with self._guard:
            self._locks.pop(table.lower(), None)

    def __len__(self) -> int:
        with self._guard:
            return len(self._locks)


class Session:
    """One client's statement stream with optional transactions."""

    def __init__(
        self,
        engine: QueryEngine,
        name: str = "session",
        lock_timeout: float = 5.0,
    ):
        self.engine = engine
        self.name = name
        self.lock_timeout = lock_timeout
        self._registry = engine.txn_locks
        self._active = False
        self._undo: list[Callable[[], None]] = []
        self._held: dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self._active

    def execute(
        self,
        sql: str,
        join_hint: Optional[str] = None,
        params: Optional[tuple] = None,
    ) -> ExecutionResult:
        # statement text resolves through the engine's plan cache — the
        # session reads the statement type for transaction control /
        # locking off the cached entry, so repeated shapes skip parsing
        values = () if params is None else tuple(params)
        entry = self.engine.statement_entry(sql, join_hint)
        return self._run(entry, join_hint, values)

    def prepare(
        self, sql: str, join_hint: Optional[str] = None
    ) -> PreparedStatement:
        """Prepare a statement whose executions run through this session.

        Executions take the session's transaction locks exactly like
        :meth:`execute`, so a prepared DML inside a BEGIN participates
        in the undo log.
        """
        return PreparedStatement(
            self.engine,
            sql,
            join_hint,
            executor=lambda entry, values: self._run(entry, join_hint, values),
        )

    def _run(
        self, entry: CacheEntry, join_hint: Optional[str], values: tuple
    ) -> ExecutionResult:
        stmt = entry.stmt
        if isinstance(stmt, Begin):
            return self._begin()
        if isinstance(stmt, Commit):
            return self._commit()
        if isinstance(stmt, Rollback):
            return self._rollback()
        if not self._active:
            result = self.engine.execute_prepared(
                entry, values, join_hint=join_hint
            )
            if isinstance(stmt, DropTable):
                # the dropped table's transaction lock would otherwise
                # live in the registry forever (DDL-churn leak)
                self._registry.evict(stmt.name)
            return result
        if isinstance(stmt, (CreateTable, DropTable)):
            raise TransactionError("DDL is not allowed inside a transaction")
        self._lock_tables(tables_touched(stmt))
        try:
            return self.engine.execute_prepared(
                entry, values, join_hint=join_hint, undo=self._undo
            )
        except Exception as exc:
            # a failed statement may have applied part of its rows;
            # abort the whole transaction so the state stays clean
            self._rollback()
            raise TransactionAborted(
                f"transaction aborted by statement failure: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def _begin(self) -> ExecutionResult:
        if self._active:
            raise TransactionError("transaction already in progress")
        self._active = True
        self._undo = []
        return ExecutionResult()

    def _commit(self) -> ExecutionResult:
        if not self._active:
            raise TransactionError("COMMIT outside a transaction")
        self._finish()
        return ExecutionResult()

    def _rollback(self) -> ExecutionResult:
        if not self._active:
            raise TransactionError("ROLLBACK outside a transaction")
        try:
            for undo in reversed(self._undo):
                undo()
        finally:
            self._finish()
        return ExecutionResult()

    def _finish(self) -> None:
        self._active = False
        self._undo = []
        held, self._held = self._held, {}
        for lock in held.values():
            lock.release()

    def _lock_tables(self, tables: list[str]) -> None:
        # sorted acquisition bounds (but cannot fully prevent) deadlocks
        # across statements; the timeout-abort handles the rest
        for table in sorted(set(t.lower() for t in tables)):
            if table in self._held:
                continue
            lock = self._registry.lock_for(table)
            if not lock.acquire(timeout=self.lock_timeout):
                self._rollback()
                raise TransactionAborted(
                    f"lock timeout on table {table!r}: transaction rolled back"
                )
            self._held[table] = lock

    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._active:
            self._rollback()


# ----------------------------------------------------------------------
# statement analysis
# ----------------------------------------------------------------------
def tables_touched(stmt: Statement) -> list[str]:
    """All table names a statement touches, subqueries included."""
    tables: list[str] = []
    for node in walk(stmt, into_selects=True):
        if isinstance(node, TableRef):
            tables.append(node.name)
        elif isinstance(node, (Insert, Update, Delete)):
            tables.append(node.table)
    return tables
