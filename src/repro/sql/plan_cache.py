"""Schema-versioned plan cache for prepared and repeated statements.

Parsing and planning dominate the enclave cost of small point queries;
a workload of repeated statement *shapes* (the norm under prepared
statements) pays it once. The cache maps ``(normalized SQL, join hint)``
to a :class:`CacheEntry` holding the parsed statement and — for
statements whose plan is reusable — the physical-plan template, which
is immutable after planning and is what every execution runs (a run's
numbers live in its ledger, never on the nodes).

Safety rules:

* every entry is stamped with the catalog's ``schema_version`` at plan
  time; a lookup whose stamp no longer matches discards the entry
  (counted as an invalidation) and replans — a cached plan can never
  run against a changed schema or hold a dropped table's store handle;
* statements containing subqueries are **uncacheable**: the planner
  folds uncorrelated subqueries into literals at plan time, so a cached
  template would freeze data-dependent results;
* parameters never make a plan entry stale — sargable ``?`` equalities
  are planned as :class:`~repro.sql.params.ParamMarker` placeholders the
  scans resolve per execution, so one template serves every binding; a
  ``?`` range bound stays a residual filter over the scan.

The cache itself is a bounded LRU (``StorageConfig.plan_cache_size``
shapes; 0 disables caching) guarded by one lock; entries are immutable
after insertion, so concurrent sessions share them freely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Union

from repro.sql.ast_nodes import SUBQUERY_NODES, Statement, walk
from repro.sql.operators.base import PhysicalOp

#: key type: (normalized SQL, join hint), or ("fragment", id) for a
#: sharded worker's pushed-down fragment (an int is never a join hint)
CacheKey = tuple[str, Union[str, int, None]]


def normalize_sql(sql: str) -> str:
    """Canonical cache-key text for a statement.

    Whitespace runs collapse to single spaces so trivially reformatted
    statements share an entry — except when the statement contains a
    string literal (whitespace inside quotes is significant), where only
    the surrounding whitespace is stripped.
    """
    if "'" in sql:
        return sql.strip()
    return " ".join(sql.split())


def statement_has_subqueries(stmt: Statement) -> bool:
    """Whether any expression in the statement nests a subquery."""
    return any(
        isinstance(node, SUBQUERY_NODES) for node in walk(stmt, into_selects=True)
    )


@dataclass(frozen=True)
class CacheEntry:
    """One prepared statement shape (immutable once built)."""

    sql: str  # normalized statement text (key part, for introspection)
    stmt: Statement
    param_count: int
    join_hint: Optional[str]
    #: catalog.schema_version the templates were planned under
    schema_version: int
    #: False → never stored (subqueries, DDL, transaction control)
    cacheable: bool
    #: SELECT plan, executed as it is (None: planned when run)
    select_template: Optional[PhysicalOp] = None
    #: filtered-scan plan for UPDATE/DELETE row matching
    filter_template: Optional[PhysicalOp] = None
    #: tenant whose query built this entry (None: admin/untenanted).
    #: Entries are *shared* across tenants — plans contain no tenant
    #: data, only statement shape — and a hit from a different tenant
    #: counts ``sql.plan_cache_cross_tenant_hits``, making the sharing
    #: win observable per deployment.
    tenant: Optional[str] = None


class PlanCache:
    """Bounded, thread-safe LRU of :class:`CacheEntry` by cache key."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: CacheKey, entry: CacheEntry) -> None:
        if self.capacity <= 0 or not entry.cacheable:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self, key: CacheKey) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
