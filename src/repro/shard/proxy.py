"""Proxy table stores: the storage interface over the shard fleet.

A :class:`ShardProxyStore` registers in the coordinator catalog where a
local :class:`~repro.storage.table_store.VerifiableTable` normally
would, presenting the same storage surface — ``insert``/``update``/
``delete``/``get``/``scan_chunks``/``scan``/``seq_scan``/``row_count`` — so the
coordinator's planner and executor run *unchanged* over a sharded
fleet. Each call routes to the owning shard when the partitioner can
decide ownership, and scatters (through MAC'd envelopes) when it
cannot:

* DML routes by the row's shard-key value; an update that moves the
  shard-key relocates the row with a delete at the old owner and an
  insert at the new one;
* point ``get``/``delete`` route directly when the shard key *is* the
  primary key, and broadcast otherwise;
* ``scan`` prunes the shard set when scanning the shard-key column,
  then merges the per-shard runs with a heap merge on the chain order
  ``(value, primary key)`` — the exact order a local chain scan emits —
  so the planner's sort-elision and merge-join decisions stay valid;
  the scan operators pull the merged rows as column chunks
  (``scan_chunks``), as they do from a local table.

This is the *gather-mode* fallback path; queries the router can push
down never reach these per-row methods.
"""

from __future__ import annotations

import heapq
from itertools import islice, repeat
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.catalog.schema import Schema
from repro.errors import StorageError
from repro.storage import config as storage_config


class ShardProxyStore:
    """A VerifiableTable lookalike that scatters to the shard fleet."""

    def __init__(self, name: str, schema: Schema, router, config):
        from repro.shard.partition import partitioner_for

        self.name = name
        self.schema = schema
        self.router = router
        self.wal = None  # durability lives inside each worker enclave
        self._partitioner = partitioner_for(config, name)
        self._shard_key = config.shard_key_for(name, schema)
        self._key_index = schema.column_index(self._shard_key)
        self._pk_index = schema.primary_key_index
        self._pk_is_key = self._shard_key == schema.primary_key
        self._prune = config.prune

    # ------------------------------------------------------------------
    # routing helpers
    # ------------------------------------------------------------------
    def _owner(self, shard_key_value: Any) -> int:
        return self._partitioner.shard_of(shard_key_value)

    def _all_shards(self) -> range:
        return range(self.router.shard_count)

    # ------------------------------------------------------------------
    # write interface
    # ------------------------------------------------------------------
    def insert(self, row: Iterable[Any]) -> None:
        self.insert_many((row,))

    def insert_many(self, rows: Iterable[Iterable[Any]]) -> None:
        """One ``insert_many`` request per owner shard, sent concurrently,
        once every row is valid and no primary key repeats in the batch
        or (placement not by primary key) is held by any shard."""
        rows = [self.schema.validate_row(row) for row in rows]
        seen = set()
        for row in rows:
            pk = row[self._pk_index]
            if pk in seen or not self._pk_is_key and self._lookup(pk) is not None:
                raise StorageError(
                    f"duplicate primary key {pk!r} in table {self.name!r}"
                )
            seen.add(pk)
        parts: dict[int, list] = {}
        for row in rows:
            parts.setdefault(self._owner(row[self._key_index]), []).append(row)
        self.router.scatter(
            parts,
            "insert_many",
            lambda shard_id: {"table": self.name, "rows": parts[shard_id]},
        )

    def update(self, pk: Any, updates: dict) -> bool:
        touches_placement = self._shard_key in updates or (
            not self._pk_is_key and self.schema.primary_key in updates
        )
        if not touches_placement:
            if self._pk_is_key and self._prune:
                return self.router.call(
                    self._owner(pk),
                    "update",
                    {"table": self.name, "pk": pk, "updates": updates},
                )
            results = self.router.broadcast(
                "update", {"table": self.name, "pk": pk, "updates": updates}
            )
            return any(results)
        # the shard key (or pk, when placement follows a non-pk shard
        # key) changes: relocate through delete + insert so the row
        # lands on its new owner
        old_row = self._lookup(pk)
        if old_row is None:
            return False
        new_row = list(old_row)
        for column, value in updates.items():
            new_row[self.schema.column_index(column)] = value
        new_row = self.schema.validate_row(new_row)
        old_shard = self._owner(old_row[self._key_index])
        new_shard = self._owner(new_row[self._key_index])
        if old_shard == new_shard:
            return self.router.call(
                old_shard,
                "update",
                {"table": self.name, "pk": pk, "updates": updates},
            )
        new_pk = new_row[self._pk_index]
        if new_pk != pk and self._lookup(new_pk) is not None:
            raise StorageError(
                f"duplicate primary key {new_pk!r} in table {self.name!r}"
            )
        self.router.call(
            old_shard, "delete", {"table": self.name, "pk": pk}
        )
        self.router.call(
            new_shard, "insert_many", {"table": self.name, "rows": [tuple(new_row)]}
        )
        return True

    def delete(self, pk: Any) -> bool:
        if self._pk_is_key and self._prune:
            return self.router.call(
                self._owner(pk), "delete", {"table": self.name, "pk": pk}
            )
        results = self.router.broadcast(
            "delete", {"table": self.name, "pk": pk}
        )
        return any(results)

    # ------------------------------------------------------------------
    # read interface
    # ------------------------------------------------------------------
    def _lookup(self, pk: Any) -> Optional[tuple]:
        if self._pk_is_key and self._prune:
            return self.router.call(
                self._owner(pk), "get", {"table": self.name, "pk": pk}
            )
        for row in self.router.broadcast("get", {"table": self.name, "pk": pk}):
            if row is not None:
                return tuple(row)
        return None

    def get(self, pk: Any, columns: Optional[Sequence[str]] = None) -> tuple[Optional[tuple], None]:
        # the worker's enclave checked the point proof before answering
        # and the reply rode home under the link MAC; there is no
        # client-side proof object to re-check here
        row = self._lookup(pk)
        if row is not None and columns is not None:
            row = [row[self.schema.column_index(name)] for name in columns]
        return (None if row is None else tuple(row)), None

    def scan_chunks(
        self,
        column: Optional[str] = None,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = True,
        columns: Optional[Sequence[str]] = None,
    ) -> Iterator[tuple[int, list[list]]]:
        """The gathered scan as ``(length, values)`` column chunks of
        ``BATCH_ROWS`` rows, in chain order: the stream a local
        :meth:`VerifiableTable.scan_chunks` yields."""
        column = column or self.schema.primary_key
        if self.schema.chain_id(column) is None:
            raise StorageError(
                f"column {column!r} has no key chain; scan the primary key "
                f"and filter, or declare it in Schema.chain_columns"
            )
        shard_ids = self._all_shards()
        if self._prune and column == self._shard_key:
            shard_ids = self._partitioner.shards_for_range(
                lo, hi, include_lo, include_hi
            )
        # the projection travels to the workers; the merge keys ride
        # along behind it when the caller does not read them
        names = self.schema.column_names if columns is None else tuple(columns)
        merge_keys = (column, self.schema.primary_key)
        wire = names + tuple(
            k for k in dict.fromkeys(merge_keys) if k not in names
        )
        payload = {
            "table": self.name,
            "column": column,
            "lo": lo,
            "hi": hi,
            "include_lo": include_lo,
            "include_hi": include_hi,
            "columns": wire,
        }
        runs = self.router.scatter(shard_ids, "scan", lambda _i: payload)
        if len(runs) == 1:
            rows = runs[0]
        else:
            # each worker's chain scan is ordered by (value, pk); a heap
            # merge preserves that global order, keeping the coordinator
            # planner's interesting-order bookkeeping truthful
            value_index, pk_index = (wire.index(k) for k in merge_keys)
            rows = heapq.merge(
                *runs, key=lambda row: (row[value_index], row[pk_index])
            )
        return _column_chunks(rows, storage_config.BATCH_ROWS, len(names))

    def scan(
        self,
        column: Optional[str] = None,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = True,
        columns: Optional[Sequence[str]] = None,
    ) -> list[tuple]:
        rows: list[tuple] = []
        for length, values in self.scan_chunks(
            column, lo, hi, include_lo, include_hi, columns
        ):
            rows += zip(*values) if values else repeat((), length)
        return rows

    def seq_scan(self, columns: Optional[Sequence[str]] = None) -> list[tuple]:
        return self.scan(columns=columns)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return sum(
            self.router.broadcast("row_count", {"table": self.name})
        )

    def destroy(self) -> None:
        self.router.broadcast("drop_table", {"name": self.name})


def _column_chunks(
    rows: Iterable[tuple], size: int, width: int
) -> Iterator[tuple[int, list[list]]]:
    """``size`` rows at a time, as lists of their first ``width`` columns."""
    rows = iter(rows)
    while chunk := list(islice(rows, size)):
        yield len(chunk), [list(column) for column in islice(zip(*chunk), width)]
