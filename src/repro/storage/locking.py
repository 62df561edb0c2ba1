"""Concurrency helpers for the storage layer.

The paper's prototype relies on page latches plus the partitioned RSWS
locks; this reproduction uses a slightly coarser but carefully layered
scheme (documented trade-off):

* **mutations** (insert / delete / update) serialize on a per-table
  lock — chain splicing touches multiple records and the allocator;
* **point reads** run lock-free: a verified cell read is atomic under
  its RSWS partition lock, so a get sees a consistent *record*; what it
  may transiently see is a mid-splice *chain* (e.g. a predecessor whose
  nKey was already redirected), which surfaces as a proof failure. Point
  reads therefore retry a bounded number of times before treating the
  failure as real — an honest race resolves within a retry, an actual
  attack keeps failing;
* **indexes** are wrapped in :class:`ThreadSafeIndex`: the B+-tree is a
  plain in-memory structure, and lock-free readers must never observe a
  mid-split node. The wrapper's critical sections are tiny (O(log n)
  pointer chasing) compared to a table operation's PRF/codec work, so
  mutator throughput is unaffected.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.index.btree import BPlusTree

#: attempts a lock-free point read makes before raising the failure
POINT_READ_RETRIES = 8


class ThreadSafeIndex:
    """A mutex-guarded facade over :class:`BPlusTree`.

    Ordered iteration (:meth:`items`) snapshots the matching entries
    under the lock — callers that walk a chain while validating records
    need a stable view of the index, and scans already materialize.
    """

    def __init__(self, order: int = 64):
        self._tree = BPlusTree(order=order)
        self._lock = threading.Lock()

    def insert(self, key: Any, value: Any) -> None:
        with self._lock:
            self._tree.insert(key, value)

    def delete(self, key: Any) -> bool:
        with self._lock:
            return self._tree.delete(key)

    def search(self, key: Any) -> Any | None:
        with self._lock:
            return self._tree.search(key)

    def search_le(self, key: Any) -> Optional[tuple]:
        with self._lock:
            return self._tree.search_le(key)

    def search_lt(self, key: Any) -> Optional[tuple]:
        with self._lock:
            return self._tree.search_lt(key)

    def search_ge(self, key: Any) -> Optional[tuple]:
        with self._lock:
            return self._tree.search_ge(key)

    def items(self, lo: Any = None, hi: Any = None) -> list[tuple]:
        with self._lock:
            return list(self._tree.items(lo=lo, hi=hi))

    def count(self, lo: Any = None, hi: Any = None) -> int:
        with self._lock:
            return self._tree.count(lo, hi)

    def min_key(self) -> Any | None:
        with self._lock:
            return self._tree.min_key()

    def max_key(self) -> Any | None:
        with self._lock:
            return self._tree.max_key()

    def __contains__(self, key: Any) -> bool:
        return self.search(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._tree)

    def check_invariants(self) -> None:
        with self._lock:
            self._tree.check_invariants()
