"""The verifiable table: storage operations plus secure access methods.

:class:`VerifiableTable` implements Algorithm 3's interface (Get /
Insert / Delete / Update, plus Register via page creation and Move via
relocation) over the heap, and the access methods of Section 5.2 on top:

* point lookup by primary key, returning a single-record presence or
  absence proof;
* verified range scans over any chained column, checking Figure 5's
  three conditions (left boundary, right boundary, contiguous key
  chain);
* sequential scan as a full-chain range scan.

Scans take the list of columns their caller reads and decode each
chunk of records through the layout's compiled plan for that
projection: the scanned chain's ``key``/``nKey`` (all Figure 5 looks
at) plus those columns, nothing else, one list per value.
``columns=None`` is the widest projection, not a different path. A
scan is one generator (:meth:`VerifiableTable.scan_chunks`) that
checks Figure 5 a chunk at a time and yields the chunk's columns;
``scan``, ``seq_scan`` and ``scan_with_proof`` drain it into rows.

All structural operations serialize on a per-table lock; cell-level
integrity is independently protected by the write-read consistent
memory, whose page scans move no cells and so need no table lock.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import and_, eq, is_, ne, not_, or_
from typing import Any, Iterable, Iterator, Sequence

from repro.catalog.schema import Schema
from repro.catalog.types import BOTTOM, TOP
from repro.errors import IntegrityError, ProofError, StorageError
from repro.faults import default_fault_plane, sites as fault_sites
from repro.storage import config
from repro.storage.locking import POINT_READ_RETRIES, ThreadSafeIndex
from repro.storage.engine import StorageEngine
from repro.storage.heap import HeapFile, RecordId
from repro.storage.keychain import (
    DATA_RECORD,
    ChainLayout,
    PointProof,
    RangeProof,
    StoredRecord,
)
from repro.storage.record import RecordCodec


@dataclass
class TableStats:
    inserts: int = 0
    deletes: int = 0
    updates: int = 0
    point_lookups: int = 0
    range_scans: int = 0
    proofs_checked: int = 0
    records_moved: int = 0
    extra: dict = field(default_factory=dict)


class VerifiableTable:
    """One relational table in the verifiable page-structured storage."""

    def __init__(self, name: str, schema: Schema, engine: StorageEngine):
        self.name = name
        self.schema = schema
        self.engine = engine
        self.layout = ChainLayout(schema)
        self.codec = RecordCodec()
        #: the lock-free point reads' codec, apart from the fallback tally scans read under the lock
        self._point_codec = RecordCodec()
        self.stats = TableStats()
        self.obs = engine.obs
        self.faults = default_fault_plane()
        #: write-ahead log, attached by Catalog.register when the
        #: database is durable; None (the default) for standalone and
        #: spill/temporary tables, whose writes must stay off the log
        self.wal = None
        self._ctr_fallbacks = self.obs.counter("storage.decode_fallbacks")
        self._ctr_skipped = self.obs.counter("storage.fields_skipped")
        self._lock = threading.RLock()
        self._row_count = 0
        self.heap = HeapFile(engine)
        #: One untrusted B+-tree per chain, mapping chain key -> RecordId.
        #: Thread-safe: point reads consult them without the table lock.
        self.indexes = [ThreadSafeIndex() for _ in self.layout.chains]
        for chain_id in range(self.layout.n_chains):
            sentinel = self.layout.sentinel(chain_id, TOP)
            rid = self.heap.insert(self._encode(sentinel))
            self.indexes[chain_id].insert(BOTTOM, rid)

    # ------------------------------------------------------------------
    # write interface
    # ------------------------------------------------------------------
    def insert(self, row: Iterable[Any]) -> RecordId:
        """Insert a row, splicing it into every key chain: the one-row
        case of :meth:`insert_many`."""
        return self.insert_many((row,))[0]

    def insert_many(self, rows: Iterable[Iterable[Any]]) -> list[RecordId]:
        """Splice a batch of rows into every key chain; returns their
        RecordIds in input order. Nothing is written before every row,
        primary key and run predecessor has passed its check. A run of
        new keys between two existing neighbours shares one predecessor,
        rewritten once per chain (INTERNALS §2, "Bulk ingest")."""
        check, validate = self.faults.check, self.schema.validate_row
        checked = []
        for row in rows:
            # Injection site: the splice is interrupted before any chain
            # or heap mutation — no partial splice can exist, an
            # identical retry of the batch is safe.
            check(fault_sites.SPLICE_INTERRUPTION)
            checked.append(validate(row))
        rows = checked
        layout = self.layout
        with self._lock:
            # the new records, each nKey filled in once its run is known
            stored = [layout.stored_from_row(row, [None] * layout.n_chains) for row in rows]
            previous = None
            for pk in sorted(record.chain_keys[0] for record in stored):
                if pk == previous or self.indexes[0].search(pk) is not None:
                    raise StorageError(
                        f"duplicate primary key {pk!r} in table {self.name!r}"
                    )
                previous = pk
            runs = []  # (chain, first new key, the nKey bounding the run)
            for chain_id in range(layout.n_chains):
                evidence = layout.scan_plan(chain_id, ())  # key and nKey only
                ordered = stored if len(stored) == 1 else sorted(
                    stored, key=lambda record: record.chain_keys[chain_id]
                )
                start, count = 0, len(ordered)
                while start < count:
                    first = ordered[start].chain_keys[chain_id]
                    nk = self._predecessor(chain_id, first, plan=evidence)[1][2]
                    if not nk > first:
                        raise ProofError(
                            f"chain {chain_id} predecessor nKey {nk!r} does not "
                            f"bound new key {first!r}"
                        )
                    # the run: every new key below that nKey, linked in order
                    record = ordered[start]
                    start += 1
                    while start < count and ordered[start].chain_keys[chain_id] < nk:
                        record.chain_nexts[chain_id] = ordered[start].chain_keys[chain_id]
                        record = ordered[start]
                        start += 1
                    record.chain_nexts[chain_id] = nk
                    runs.append((chain_id, first, nk))
            rids = self.heap.insert_many([self._encode(record) for record in stored])
            # Point each run's predecessor at the run's first key,
            # re-resolved: an earlier chain's rewrite may have moved a
            # predecessor two chains share.
            for chain_id, first, nk in runs:
                pred_rid, pred = self._predecessor(chain_id, first)
                if pred.next_key(chain_id) != nk:
                    raise ProofError(
                        f"chain {chain_id} predecessor of {first!r} changed "
                        f"from nKey {nk!r} to {pred.next_key(chain_id)!r} mid-splice"
                    )
                pred.chain_nexts[chain_id] = first
                self._write_stored(pred_rid, pred)
            for record, rid in zip(stored, rids):
                for index, key in zip(self.indexes, record.chain_keys):
                    index.insert(key, rid)
            self._row_count += len(rows)
            self.stats.inserts += len(rows)
            # logged inside the table lock, after the splice committed:
            # log order equals apply order, so replay reproduces state
            if self.wal is not None:
                for row in rows:
                    self.wal.append_insert(self.name, row)
            return rids

    def delete(self, pk: Any) -> bool:
        """Delete by primary key; False (with absence proof) if missing."""
        # Injection site: mirror of the insert interruption — fires
        # before the unlink touches anything.
        self.faults.check(fault_sites.SPLICE_INTERRUPTION)
        with self._lock:
            rid, stored, proof = self._locate_pk(pk)
            proof.check()
            self.stats.proofs_checked += 1
            if rid is None:
                return False
            # Unlink from every chain: predecessor inherits our nKey.
            for chain_id in range(self.layout.n_chains):
                ckey = stored.key(chain_id)
                pred_rid, pred_stored = self._predecessor(chain_id, ckey, strict=True)
                if pred_stored.next_key(chain_id) != ckey:
                    raise ProofError(
                        f"chain {chain_id} corrupt at delete: predecessor "
                        f"nKey {pred_stored.next_key(chain_id)!r} != {ckey!r}"
                    )
                pred_stored.chain_nexts[chain_id] = stored.next_key(chain_id)
                self._write_stored(pred_rid, pred_stored)
            self.heap.delete(rid)
            for chain_id in range(self.layout.n_chains):
                self.indexes[chain_id].delete(stored.key(chain_id))
            self._row_count -= 1
            self.stats.deletes += 1
            # the full old row rides in the record: replay and the log's
            # content digest both need the removed element, not just pk
            if self.wal is not None:
                self.wal.append_delete(
                    self.name, self.layout.row_from_stored(stored)
                )
            return True

    def update(self, pk: Any, updates: dict) -> bool:
        """Update columns of the row keyed ``pk``; False if missing.

        Chain-key columns may change; that is executed as delete+insert
        (the key chains must be re-spliced). Pure data updates rewrite
        the record, in place when it fits, else via a protected Move.
        """
        unknown = set(updates) - set(self.schema.column_names)
        if unknown:
            raise StorageError(f"unknown columns in update: {sorted(unknown)}")
        with self._lock:
            rid, stored, proof = self._locate_pk(pk)
            proof.check()
            self.stats.proofs_checked += 1
            if rid is None:
                return False
            row = self.layout.row_from_stored(stored)
            new_row = list(row)
            for name, value in updates.items():
                new_row[self.schema.column_index(name)] = value
            new_row = self.schema.validate_row(new_row)
            chains_changed = any(
                new_row[self.schema.column_index(col)]
                != row[self.schema.column_index(col)]
                for col in self.layout.chains
            )
            if chains_changed:
                # delegates to delete+insert, which log themselves — an
                # UPDATE record here would double-count the row
                self.delete(pk)
                self.insert(new_row)
            else:
                new_stored = StoredRecord(
                    stored.sentinel_of,
                    stored.chain_keys,
                    stored.chain_nexts,
                    tuple(new_row[i] for i in self.layout.data_column_indexes),
                )
                self._write_stored(rid, new_stored)
                if self.wal is not None:
                    self.wal.append_update(self.name, row, new_row)
            self.stats.updates += 1
            return True

    # ------------------------------------------------------------------
    # read interface (secure access methods, Section 5.2)
    # ------------------------------------------------------------------
    def get(self, pk: Any, columns: Sequence[str] | None = None) -> tuple[tuple | None, PointProof]:
        """Point lookup by primary key with a one-record proof.

        Read-only: the record decodes through the primary chain's scan
        plan for ``columns`` (None: every column), so its ``⟨key, nKey⟩``
        evidence and the projected values are all that is built.
        Lock-free: a verified cell read is atomic, so the record itself
        is always consistent; a concurrent chain splice can transiently
        fail the evidence check, which is retried a bounded number of
        times (an honest race resolves immediately, a real attack keeps
        failing and the final failure propagates).
        """
        plan = self.layout.scan_plan(0, columns)
        attempts = 0
        while True:
            try:
                payload = self.heap.read(self._pk_rid(pk))
                sentinel_of, key, next_key, row = self._point_codec.decode(payload, plan)
                proof = PointProof(pk, key, next_key, key == pk)
                proof.check()
                break
            except (IntegrityError, StorageError):
                # IntegrityError: a mid-splice chain failed the evidence
                # check; StorageError: the index answer went stale (the
                # record moved or its slot was freed) between lookup and
                # read. Both resolve once the in-flight mutation finishes.
                attempts += 1
                if attempts >= POINT_READ_RETRIES:
                    raise
                # Wait out any in-flight splice: taking and releasing the
                # table lock guarantees the next attempt sees a chain that
                # is consistent as of some complete mutation.
                with self._lock:
                    pass
        self.stats.point_lookups += 1
        self.stats.proofs_checked += 1
        if not proof.found:
            return None, proof
        if sentinel_of != DATA_RECORD:
            raise ProofError("sentinel records carry no user row")
        return row, proof

    def scan_chunks(
        self,
        column: str | None = None,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = True,
        columns: Sequence[str] | None = None,
    ) -> Iterator[tuple[int, list[list]]]:
        """Verified range scan as a stream of column chunks.

        Yields ``(length, values)`` per chunk of chain records that
        holds a matching row: ``values`` has one list per name in
        ``columns`` (default: every column in schema order), each
        ``length`` long, in chain order. A chunk is one batched verified
        read of ``config.BATCH_ROWS`` chain records. Figure 5 is checked
        chunk by chunk before the chunk is yielded, so whatever a
        consumer has seen is a verified prefix of the range; the right
        boundary is checked at exhaustion, and the generator's return
        value (the ``StopIteration`` value) is the complete
        :class:`RangeProof`.
        The table lock is held from the first chunk until exhaustion
        or ``close()``.
        """
        column = column or self.schema.primary_key
        chain_id = self.schema.chain_id(column)
        if chain_id is None:
            raise StorageError(
                f"column {column!r} has no key chain; scan the primary key "
                f"and filter, or declare it in Schema.chain_columns"
            )
        return self._scan_chain(chain_id, columns, lo, hi, include_lo, include_hi)

    def scan(
        self,
        column: str | None = None,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = True,
        columns: Sequence[str] | None = None,
    ) -> list[tuple]:
        """Verified range scan; returns the matching rows."""
        rows, _ = self.scan_with_proof(
            column, lo, hi, include_lo, include_hi, columns
        )
        return rows

    def scan_with_proof(
        self,
        column: str | None = None,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = True,
        columns: Sequence[str] | None = None,
    ) -> tuple[list[tuple], RangeProof]:
        """Verified range scan returning rows plus the checked evidence.

        A drain of :meth:`scan_chunks` into row tuples. The adjacency
        proof is checked per chunk of records, link by link across chunk
        boundaries, so the evidence is identical at every chunk length.
        ``columns`` names the values each returned row holds, in that
        order; the evidence is the same for every projection.
        """
        chunks = self.scan_chunks(
            column, lo, hi, include_lo, include_hi, columns
        )
        rows: list[tuple] = []
        while True:
            try:
                length, values = next(chunks)
            except StopIteration as done:
                return rows, done.value
            rows += zip(*values) if values else repeat((), length)

    def seq_scan(self, columns: Sequence[str] | None = None) -> list[tuple]:
        """Full verified sequential scan (range (⊥, ⊤) on the primary key)."""
        return self.scan(columns=columns)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return self._row_count

    def estimate_rows(self, column: str, lo, hi, include_lo=True, include_hi=True) -> int:
        """Entries the *untrusted* index claims in a value range (with the
        sentinel when ``lo`` is None): a plan-time estimate no scan trusts."""
        chain_id = self.schema.chain_id(column)
        bounds = self._chain_bounds(chain_id, lo, hi, include_lo, include_hi)
        return self.indexes[chain_id].count(*bounds)

    def page_count(self) -> int:
        return self.heap.page_count()

    def destroy(self) -> None:
        """Release the table: retire all pages from verification."""
        with self._lock:
            if self.engine.verification_enabled:
                for page in self.heap.pages():
                    self.engine.vmem.deregister_page(page.page_id)
            self.indexes = [ThreadSafeIndex() for _ in self.layout.chains]
            self._row_count = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _encode(self, stored: StoredRecord) -> bytes:
        return self.codec.encode(self.layout.to_tuple(stored))

    def _read_stored(self, rid: RecordId) -> StoredRecord:
        return self.layout.from_tuple(self.codec.decode(self.heap.read(rid)))

    def _write_stored(self, rid: RecordId, stored: StoredRecord) -> RecordId:
        """Rewrite a record; relocates (Move) when it no longer fits."""
        payload = self._encode(stored)
        if self.heap.fits_in_place(rid, len(payload)):
            self.heap.write(rid, payload)
            return rid
        self.heap.delete(rid)
        new_rid = self.heap.insert(payload)
        self.stats.records_moved += 1
        for chain_id in range(self.layout.n_chains):
            key = stored.key(chain_id)
            if key is not None:
                self.indexes[chain_id].insert(key, new_rid)
        return new_rid

    def _predecessor(
        self, chain_id: int, ckey: Any, strict: bool = False, plan=None
    ) -> tuple[RecordId, Any]:
        """Largest chain record with key < ``ckey``, validated; the index
        is asked at or below ``ckey`` (``strict``: below it). The record
        comes whole (a StoredRecord) or, with a ``plan``, decoded to
        ``(sentinel_of, key, nKey, values)``."""
        index = self.indexes[chain_id]
        hit = index.search_lt(ckey) if strict else index.search_le(ckey)
        if hit is None:
            raise ProofError(f"untrusted index lost the chain-{chain_id} sentinel")
        rid = hit[1]
        if plan is None:
            record = self._read_stored(rid)
            key = record.key(chain_id)
        else:
            record = self.codec.decode(self.heap.read(rid), plan)
            key = record[1]
        if key is None:
            raise ProofError(f"index returned a record outside chain {chain_id}")
        if not key < ckey:
            raise ProofError(f"index returned non-predecessor {key!r} for target {ckey!r}")
        return rid, record

    def _locate_pk(self, pk: Any) -> tuple[RecordId | None, StoredRecord, PointProof]:
        """Index search of Section 5.2 for a rewrite: the whole record."""
        rid = self._pk_rid(pk)
        stored = self._read_stored(rid)
        key = stored.key(0)
        proof = PointProof(pk, key, stored.next_key(0), key == pk)
        return (rid if proof.found else None), stored, proof

    def _pk_rid(self, pk: Any) -> RecordId:
        """Where the untrusted index says the evidence for ``pk`` is."""
        hit = self.indexes[0].search_le(pk)
        if hit is None:
            raise ProofError("untrusted index lost the primary-key sentinel")
        return hit[1]

    def _chain_bounds(self, chain_id: int, lo, hi, include_lo, include_hi) -> tuple:
        """The chain-key bound a scan of a value range must *cover* on each side."""
        low, high = self.layout.low_bound, self.layout.high_bound
        return (
            BOTTOM if lo is None else (low if include_lo else high)(chain_id, lo),
            TOP if hi is None else (high if include_hi else low)(chain_id, hi),
        )

    def _scan_chain(
        self,
        chain_id: int,
        columns: Sequence[str] | None,
        lo,
        hi,
        include_lo,
        include_hi,
    ) -> Iterator[tuple[int, list[list]]]:
        layout = self.layout
        # every record is decoded once, a chunk at a time, through the
        # plan for this chain and projection: sentinel_of, key and nKey
        # lists, then one list per projected column
        plan = layout.scan_plan(chain_id, columns)
        codec = self.codec
        miss = partial(codec.decode, plan=plan)
        index = self.indexes[chain_id]
        lo_bound, hi_bound = self._chain_bounds(chain_id, lo, hi, include_lo, include_hi)
        proof = RangeProof(
            low=lo_bound, high=hi_bound, right_inclusive=include_hi
        )
        # Unbounded full-table sweeps bypass cache admission so one large
        # sequential scan cannot evict the hot working set (scan
        # resistance); bounded range reads still warm the cache.
        admit = not (lo_bound is BOTTOM and hi_bound is TOP)
        bounded = hi_bound is not TOP  # else no key lies past the right end
        past = operator.gt if include_hi else operator.ge
        # The range filter compares chain keys: on chain 0 a key is the
        # column value itself; a secondary key (value, pk) lies below or
        # past the value bounds exactly when it lies below or past the
        # chain-key bounds computed from them.
        outside = []
        if lo is not None:
            below = operator.lt if chain_id or include_lo else operator.le
            outside.append((below, lo_bound))
        if hi is not None:
            outside.append((operator.gt if chain_id else past, hi_bound))
        expected: Any = None  # the last nKey read: the next chunk's first key
        records_read = decoded = fallbacks = 0
        finished = False
        with self._lock:
            seed = index.search_le(lo_bound)
            if seed is None:
                raise ProofError(f"untrusted index lost the chain-{chain_id} sentinel")
            # Records are fetched ``BATCH_ROWS`` at a time. Which records
            # is a prefetch hint from the *untrusted* index — the seed,
            # then every entry it does not claim is past the bound;
            # termination and omission detection rest exclusively on the
            # trusted nKey chain below, so a lying index cannot truncate
            # a scan.
            items = index.items(seed[0], hi_bound if bounded else None) or [seed]
            if len(items) > 1 and past(items[-1][0], hi_bound):
                items.pop()  # the exclusive bound itself
            size = config.BATCH_ROWS
            try:
                for start in range(0, len(items), size):
                    rids = [rid for _ikey, rid in items[start : start + size]]
                    payloads = self.heap.read_many(rids, admit=admit)
                    before = codec.fallbacks
                    sentinels, keys, next_keys, *values = plan.chunk(payloads, miss)
                    fallbacks += codec.fallbacks - before
                    n = len(keys)
                    decoded += n
                    # Figure 5 in record order: condition 1 on the scan's
                    # first record; then the first record outside the
                    # chain or breaking condition 3 (its key is not its
                    # predecessor's nKey, across chunks too) ...
                    linked = records_read > 0
                    if not linked and keys[0] is not None:
                        proof.first_key = keys[0]
                        proof.check_left()
                    stop = n
                    if (
                        None in keys
                        or (linked and keys[0] != expected)
                        or keys[1:] != next_keys[:-1]
                    ):
                        stop = _first_break(keys, next_keys, expected, linked)
                    # ... unless the chain ends before it: at the first
                    # nKey that is ⊤ or past the right end
                    ends = (
                        map(past, islice(next_keys, stop), repeat(hi_bound))
                        if bounded
                        else map(is_, islice(next_keys, stop), repeat(TOP))
                    )
                    end = _first(ends, stop)
                    if end < stop:
                        finished = True
                        if end + 1 < n:
                            n = end + 1
                            sentinels, keys, next_keys = sentinels[:n], keys[:n], next_keys[:n]
                            values = [column[:n] for column in values]
                    elif stop < n:
                        if keys[stop] is None:
                            raise ProofError(
                                f"index returned a record outside chain {chain_id}"
                            )
                        # condition 3: raises
                        proof.check_link(next_keys[stop - 1] if stop else expected, keys[stop])
                    records_read += n
                    expected = next_keys[-1]
                    keep = _keep_mask(sentinels, keys, outside)
                    if keep is not None:
                        n = keep.count(True)
                        values = [list(compress(column, keep)) for column in values]
                    if n:
                        yield n, values
                    if finished:
                        break
            finally:
                self._ctr_fallbacks.inc(fallbacks)
                self._ctr_skipped.inc(plan.fields_skipped * (decoded - fallbacks))
            proof.records_read = records_read
            proof.links_checked = records_read - 1 if records_read else 0
            proof.last_next_key = expected
            if not finished and expected is not TOP:
                raise ProofError(
                    f"untrusted index omitted chain-{chain_id} records: chain "
                    f"expects successor {expected!r}"
                )
            proof.check_right()  # condition 2
            self.stats.range_scans += 1
            self.stats.proofs_checked += 1
        return proof


def row_chunks(rows: Iterable) -> Iterator[list]:
    """``rows`` as lists of ``config.BATCH_ROWS``, the last one shorter:
    how the bulk callers feed :meth:`VerifiableTable.insert_many`."""
    rows = iter(rows)
    while chunk := list(islice(rows, config.BATCH_ROWS)):
        yield chunk


def _first(flags: Iterable, default: int) -> int:
    """Position of the first true flag, or ``default``."""
    return next(compress(count(), flags), default)


def _first_break(keys: list, next_keys: list, expected: Any, linked: bool) -> int:
    """The first record of a chunk whose key is missing (a record
    outside the chain) or is not its predecessor's nKey; ``expected``
    is the nKey before the chunk, a link only when ``linked``."""
    links = (
        map(ne, keys, chain((expected,), next_keys))
        if linked
        else chain((False,), map(ne, keys[1:], next_keys))
    )
    return _first(map(or_, map(is_, keys, repeat(None)), links), len(keys))


def _keep_mask(sentinels: list, keys: list, outside: list) -> list | None:
    """The range filter on one chunk: which records emit a row — data
    records whose chain key no ``(test, bound)`` of ``outside`` rejects.
    None when every record does."""
    keep = None
    if sentinels.count(DATA_RECORD) != len(sentinels):
        keep = list(map(eq, sentinels, repeat(DATA_RECORD)))
    for test, bound in outside:
        out = list(map(test, keys, repeat(bound)))
        if any(out):
            keep = list(map(and_, keep or repeat(True), map(not_, out)))
    return keep
