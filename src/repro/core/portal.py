"""The query portal (Section 5.1), the enclave's front door.

Responsibilities:

* **Query authorization** — every query carries a unique query id and a
  MAC under the key shared with the client; replayed qids and forged
  MACs are rejected, so a compromised host cannot issue its own SQL
  against the protected storage.
* **Sequence numbers** — a strictly increasing trusted counter stamps
  each query; the client's audit of these numbers is what detects
  rollback attacks (a replayed old state inevitably re-issues a number
  the client has already seen).
* **Result endorsement** — results are MACed (qid, sequence number,
  result digest), standing in for the SGX-signed channel of Step 7 in
  Figure 2.

Replay state is exact and small: a qid is an 8-byte session salt plus
a little-endian 8-byte counter (what
:class:`~repro.core.client.VeriDBClient` emits), and the portal keeps
one interval set per salt — mirroring the client's own sequence-number
log, O(1) per well-behaved client regardless of query volume. A qid of
any other length is refused before its MAC is checked. A qid is
recorded only after its query *succeeds*; a failed execution leaves the
qid unburned so an honest client may retry the same authenticated
query.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Optional

from repro.crypto.mac import MessageAuthenticator
from repro.errors import AuthenticationError, QueryReplayError
from repro.faults.retry import PORTAL_RETRY, RetryPolicy
from repro.obs import default_event_sink, default_registry
from repro.obs.trace_context import TraceContext
from repro.sgx.counter import MonotonicCounter
from repro.sql.executor import ExecutionResult, QueryEngine
from repro.storage.record import RecordCodec

#: the one query-id layout the portal accepts: the client library's
#: 8-byte salt ‖ 8-byte little-endian counter
QID_BYTES = 16


@dataclass(frozen=True)
class AuthenticatedQuery:
    """What the client sends: SQL, a unique query id, and a MAC.

    ``tenant`` selects which shared MAC key authenticates the query in a
    multi-tenant deployment (see :meth:`QueryPortal.register_tenant_key`);
    None means the portal's default key — the single-client layout of
    Figure 2.

    ``params`` binds the statement's ``?`` placeholders in order. When
    present, the values are covered by the query MAC (canonically
    encoded with the storage record codec), so a compromised host can
    no more substitute a parameter than it can rewrite the SQL text.
    """

    qid: bytes
    sql: str
    mac: bytes
    join_hint: Optional[str] = None
    tenant: Optional[str] = None
    params: Optional[tuple] = None


#: appended to the endorsement MAC of results produced while the
#: background verifier is down, so the degraded flag is itself
#: authenticated — the host can neither forge nor strip it.
UNVERIFIED_MARKER = b"unverified"


@dataclass(frozen=True)
class EndorsedResult:
    """What the portal returns: the result endorsed by the enclave.

    ``verified`` is False when the response was produced while the
    background verifier was down (graceful degradation): the query
    still executed against write-read consistent memory, but no epoch
    check vouches for the period, so the client must treat the rows as
    unaudited until a later pass covers them.
    """

    qid: bytes
    sequence_number: int
    columns: tuple
    rows: tuple
    rowcount: int
    result_digest: bytes
    endorsement: bytes
    verified: bool = True


#: the protocol's canonical encoder of parameters, headers and rows
_CODEC = RecordCodec()


@lru_cache(maxsize=256)  # a cached statement answers with one header
def _encoded_header(columns: tuple) -> bytes:
    return _CODEC.encode(columns)


def digest_result(columns: tuple, rows: tuple, rowcount: int) -> bytes:
    """Canonical digest of a query result (used in the endorsement)."""
    header = _encoded_header(tuple(columns))
    encoded = map(_CODEC.encode, rows)
    return hashlib.sha256(b"".join([header, rowcount.to_bytes(8, "little"), *encoded])).digest()


def query_parts(qid: bytes, sql: str, params: Optional[tuple]) -> list:
    """What a query MAC covers. Parameter values are authenticated with
    the SQL; param-less queries keep the original two-part MAC."""
    parts = [qid, sql.encode("utf-8")]
    if params is not None:
        parts.append(_CODEC.encode(tuple(params)))
    return parts


def endorsement_parts(qid: bytes, seqno: int, digest: bytes, verified: bool) -> list:
    """What an endorsement MAC covers. The degraded flag rides inside it:
    stripping or adding the flag fails the client's check."""
    parts = [qid, seqno.to_bytes(8, "little"), digest]
    if not verified:
        parts.append(UNVERIFIED_MARKER)
    return parts


def _endorse(mac, qid, seqno, result, verified) -> tuple:
    """(columns, rows, digest, endorsement); engine rows are tuples already."""
    columns, rows = tuple(result.columns), tuple(result.rows)
    digest = digest_result(columns, rows, result.rowcount)
    return columns, rows, digest, mac.tag(*endorsement_parts(qid, seqno, digest, verified))


def _timed(histogram, fn, *args):
    """``fn(*args)``, its wall time observed into ``histogram`` (also
    when it raises); no clock read when ``histogram`` is None."""
    if histogram is None:
        return fn(*args)
    start = perf_counter()
    try:
        return fn(*args)
    finally:
        histogram.observe(perf_counter() - start)


class IntervalSet:
    """Integers stored as merged, sorted, disjoint [lo, hi] intervals.

    This is the paper's optimization for the client's sequence-number
    log: under normal operation the received numbers are consecutive, so
    storage stays O(1) regardless of query volume. The portal's replay
    ledger keeps one per client qid salt.
    """

    def __init__(self):
        self._intervals: list[list[int]] = []  # sorted [lo, hi] pairs

    # ------------------------------------------------------------------
    # persistence: the audit log must survive the client's own restarts,
    # otherwise a rollback attack staged across client sessions goes
    # unnoticed (Section 5.1 requires the user to "maintain a small
    # piece of data")
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        out = bytearray()
        out += len(self._intervals).to_bytes(4, "little")
        for lo, hi in self._intervals:
            out += int(lo).to_bytes(8, "little")
            out += int(hi).to_bytes(8, "little")
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "IntervalSet":
        instance = cls()
        count = int.from_bytes(blob[:4], "little")
        expected = 4 + count * 16
        if len(blob) != expected:
            raise ValueError("malformed interval-set blob")
        offset = 4
        previous_hi = None
        for _ in range(count):
            lo = int.from_bytes(blob[offset : offset + 8], "little")
            hi = int.from_bytes(blob[offset + 8 : offset + 16], "little")
            offset += 16
            if lo > hi or (previous_hi is not None and lo <= previous_hi + 1):
                raise ValueError("interval-set blob is not canonical")
            instance._intervals.append([lo, hi])
            previous_hi = hi
        return instance

    def add(self, value: int) -> bool:
        """Insert; returns False (without change) if already present."""
        intervals = self._intervals
        i = bisect_right(intervals, [value, float("inf")])
        if i > 0 and intervals[i - 1][1] >= value:
            return False  # already covered
        # attach to the left neighbour?
        extends_left = i > 0 and intervals[i - 1][1] == value - 1
        extends_right = i < len(intervals) and intervals[i][0] == value + 1
        if extends_left and extends_right:
            intervals[i - 1][1] = intervals[i][1]
            del intervals[i]
        elif extends_left:
            intervals[i - 1][1] = value
        elif extends_right:
            intervals[i][0] = value
        else:
            intervals.insert(i, [value, value])
        return True

    def __contains__(self, value: int) -> bool:
        i = bisect_right(self._intervals, [value, float("inf")])
        return i > 0 and self._intervals[i - 1][1] >= value

    def __len__(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self._intervals)

    @property
    def interval_count(self) -> int:
        return len(self._intervals)

    def intervals(self) -> list[tuple[int, int]]:
        return [tuple(pair) for pair in self._intervals]


class QidLedger:
    """Exact replay memory for query ids.

    A qid is 16 bytes, salt ‖ counter, as the client library emits it.
    The ledger keeps one :class:`IntervalSet` per salt — the exact dual
    of the client's audit log — so a client issuing consecutive counters
    costs one interval no matter how many queries it sends, and no qid
    is ever forgotten. Any other length is degenerate and is refused
    before it reaches the ledger (:meth:`validate`).

    Not thread-safe; the portal serializes access under its own lock.
    """

    def __init__(self):
        self._intervals: dict[bytes, IntervalSet] = {}  # by salt

    @staticmethod
    def validate(qid: bytes) -> None:
        """Refuse a qid that is not salt ‖ counter (:class:`AuthenticationError`)."""
        if len(qid) != QID_BYTES:
            raise AuthenticationError(
                f"degenerate query id: {len(qid)} bytes, not the "
                f"{QID_BYTES}-byte salt and counter"
            )

    def __contains__(self, qid: bytes) -> bool:
        intervals = self._intervals.get(qid[:8])
        return intervals is not None and int.from_bytes(qid[8:], "little") in intervals

    def add(self, qid: bytes) -> None:
        """Record a qid (caller has already checked membership)."""
        self._intervals.setdefault(qid[:8], IntervalSet()).add(
            int.from_bytes(qid[8:], "little")
        )

    # ------------------------------------------------------------------
    @property
    def salt_count(self) -> int:
        return len(self._intervals)

    @property
    def interval_count(self) -> int:
        return sum(s.interval_count for s in self._intervals.values())

    def state_size(self) -> int:
        """Intervals kept: grows with *state held*, not with queries
        served — the figure the ``portal.qid_ledger_size`` gauge reports."""
        return self.interval_count


class QueryPortal:
    """Enclave-resident portal wrapping a query engine."""

    def __init__(
        self,
        engine: QueryEngine,
        mac_key: bytes,
        counter: MonotonicCounter,
        registry=None,
        retry_policy: RetryPolicy = PORTAL_RETRY,
        verifier_degraded=None,
        incidents=None,
        trace_sample_rate: float = 0.0,
    ):
        self._engine = engine
        self._mac = MessageAuthenticator(mac_key)
        #: tenant name -> per-tenant authenticator (service deployments)
        self._tenant_macs: dict[str, MessageAuthenticator] = {}
        self._counter = counter
        self._seen = QidLedger()
        self._pending: set[bytes] = set()
        self._executed = 0
        self._lock = threading.Lock()
        self._retry_policy = retry_policy
        #: deterministic trace sampling: query n (1-based, counted under
        #: the portal lock) is sampled iff the integer part of n*rate
        #: advances — every query at 1.0, exactly every fourth at 0.25,
        #: never at 0.0 (where the counter is not even maintained).
        self._trace_sample_rate = trace_sample_rate
        self._sample_seq = 0
        #: callable returning True while background verification is down
        self._verifier_degraded = verifier_degraded
        self._incidents = incidents
        #: write-ahead log flushed before endorsement (see attach_wal)
        self._wal = None

        self.obs = registry if registry is not None else default_registry()
        self._ctr_queries = self.obs.counter("portal.queries")
        self._ctr_auth_failures = self.obs.counter("portal.auth_failures")
        self._ctr_replays = self.obs.counter("portal.replays_rejected")
        self._ctr_degenerate = self.obs.counter("portal.degenerate_qids")
        self._ctr_execute_errors = self.obs.counter("portal.execute_errors")
        self._ctr_traced = self.obs.counter("portal.traces_sampled")
        self.obs.gauge_fn("portal.qid_ledger_size", self.replay_state_size)
        self.obs.gauge_fn("portal.qid_salts", lambda: self._seen.salt_count)
        # phase histograms: None on the dark path, which reads no clock
        on = self.obs.enabled
        self._hist_auth = self.obs.histogram("portal.auth_seconds") if on else None
        self._hist_execute = self.obs.histogram("portal.execute_seconds") if on else None
        self._hist_endorse = self.obs.histogram("portal.endorse_seconds") if on else None

    def attach_wal(self, wal) -> None:
        """Flush ``wal`` (group commit) before endorsing each query.

        Endorsement is the enclave's durable promise to the client, so
        the log records backing a statement must hit the durability
        boundary *before* the endorsement MAC leaves the enclave — the
        classic WAL rule, with the endorsement playing the part of the
        commit acknowledgement.
        """
        self._wal = wal

    # ------------------------------------------------------------------
    # multi-tenant key management (the service layer's registration path)
    # ------------------------------------------------------------------
    def register_tenant_key(self, tenant: str, key: bytes) -> None:
        """Install ``tenant``'s shared MAC key.

        Queries stamped with that tenant name are then authenticated and
        endorsed under the tenant's own key instead of the portal
        default, so one tenant's key never vouches for another's
        queries. Re-registration is rejected: a key, once established by
        the attestation handshake, is not silently replaceable.
        """
        with self._lock:
            if tenant in self._tenant_macs:
                raise AuthenticationError(
                    f"tenant {tenant!r} already has a registered MAC key"
                )
            self._tenant_macs[tenant] = MessageAuthenticator(key)

    def _authenticator(self, tenant: Optional[str]) -> MessageAuthenticator:
        if tenant is None:
            return self._mac
        # lock-free: keys are only ever added, under the lock, and one
        # dict read is atomic
        mac = self._tenant_macs.get(tenant)
        if mac is None:
            self._ctr_auth_failures.inc()
            raise AuthenticationError(
                f"unknown tenant {tenant!r}: no MAC key registered"
            )
        return mac

    # ------------------------------------------------------------------
    def submit(self, query: AuthenticatedQuery) -> EndorsedResult:
        """Authorize, execute and endorse one client query."""
        qid = query.qid
        try:
            QidLedger.validate(qid)
        except AuthenticationError:
            self._ctr_degenerate.inc()
            self._ctr_auth_failures.inc()
            raise
        mac = self._authenticator(query.tenant)
        parts = query_parts(qid, query.sql, query.params)
        if not _timed(self._hist_auth, mac.verify, query.mac, *parts):
            self._ctr_auth_failures.inc()
            raise AuthenticationError(
                "query MAC invalid: not initiated by the client"
            )
        with self._lock:
            if qid in self._seen or qid in self._pending:
                self._ctr_replays.inc()
                raise QueryReplayError(
                    f"query id {qid.hex()} was already executed (replay)",
                    qid=qid,
                )
            # Reserve, don't record: a failed execution must leave the
            # qid available for an honest retry of the same query.
            self._pending.add(qid)
        trace = self._maybe_sample_trace(qid)
        try:
            sequence_number = self._counter.increment()
            result = _timed(self._hist_execute, self._execute, query, trace)
            if self._wal is not None:
                # durability before endorsement: whatever this statement
                # appended must survive a crash once the client holds
                # the endorsed result
                self._wal.commit()
            verified = not (
                self._verifier_degraded is not None
                and self._verifier_degraded()
            )
            columns, rows, digest, endorsement = _timed(
                self._hist_endorse, _endorse, mac, qid, sequence_number, result, verified
            )
        except BaseException:
            self._ctr_execute_errors.inc()
            with self._lock:
                self._pending.discard(qid)
            raise
        with self._lock:
            self._pending.discard(qid)
            self._seen.add(qid)
            self._executed += 1
        self._ctr_queries.inc()
        if not verified:
            if self._incidents is not None:
                self._incidents.open_once(
                    "verifier-down",
                    "background verifier is not running; serving "
                    "responses flagged unverified",
                )
        elif self._incidents is not None:
            self._incidents.resolve("verifier-down")
        if trace is not None:
            sink = default_event_sink()
            if sink.enabled:
                sink.emit(
                    {
                        "type": "query_trace",
                        "qid": trace.qid,
                        "sequence_number": sequence_number,
                        "rowcount": result.rowcount,
                        "verified": verified,
                        "totals": trace.totals(),
                    }
                )
        return EndorsedResult(
            qid=query.qid,
            sequence_number=sequence_number,
            columns=columns,
            rows=rows,
            rowcount=result.rowcount,
            result_digest=digest,
            endorsement=endorsement,
            verified=verified,
        )

    def _execute(self, query: AuthenticatedQuery, trace) -> ExecutionResult:
        """Run the statement, inside ``trace`` when sampled.

        Transient faults below the engine (host-memory read errors, ECall
        aborts) are retried within this submit; each attempt starts before
        any table mutation, so a retry is a clean re-run.
        """
        if trace is not None:
            with trace:
                return self._execute(query, None)
        return self._retry_policy.call(
            lambda: self._engine.execute(
                query.sql, join_hint=query.join_hint, params=query.params, tenant=query.tenant
            )
        )

    def _maybe_sample_trace(self, qid: bytes) -> TraceContext | None:
        """Decide (deterministically) whether this query is traced."""
        rate = self._trace_sample_rate
        if rate <= 0.0:
            return None
        with self._lock:
            self._sample_seq += 1
            n = self._sample_seq
        if int(n * rate) == int((n - 1) * rate):
            return None
        self._ctr_traced.inc()
        return TraceContext(qid=qid.hex())

    # ------------------------------------------------------------------
    def seen_query_count(self) -> int:
        """Queries successfully executed and endorsed."""
        with self._lock:
            return self._executed

    def replay_state_size(self) -> int:
        """Size of the replay ledger (intervals kept)."""
        with self._lock:
            return self._seen.state_size()
