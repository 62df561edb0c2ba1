"""The client library.

Per Section 5.1 the user keeps a *small piece of data* — the set of
sequence numbers already observed, compressed into intervals — and
verifies that no number ever repeats; repetition proves a rollback.
Every query is stamped with a fresh qid and MACed; every result's
endorsement is checked before the rows are trusted.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Optional

from repro.crypto.keys import generate_key
from repro.crypto.mac import MessageAuthenticator
from repro.errors import (
    AuthenticationError,
    QueryReplayError,
    ResponseLost,
    RollbackDetected,
)
from repro.faults.retry import CLIENT_RETRY, RetryPolicy
from repro.core.portal import (
    AuthenticatedQuery,
    EndorsedResult,
    IntervalSet,
    digest_result,
    endorsement_parts,
    query_parts,
)
from repro.obs import default_registry
from repro.sgx.attestation import verify_quote


@dataclass
class ClientResult:
    """A verified query result as seen by the client.

    ``verified`` mirrors the portal's authenticated degradation flag:
    False means the response is authentic and rollback-audited but was
    produced while no background verifier was watching the memory.
    """

    columns: tuple
    rows: tuple
    rowcount: int
    sequence_number: int
    verified: bool = True


class VeriDBClient:
    """A client connection: authenticates queries, audits responses."""

    def __init__(
        self,
        submit,
        mac_key: bytes,
        name: str = "client",
        audit_state: bytes | None = None,
        retry_policy: RetryPolicy = CLIENT_RETRY,
        tenant: str | None = None,
    ):
        """``submit`` is the transport to the portal (an ECall in the
        simulated deployment); ``mac_key`` is the key established during
        the attestation handshake. ``audit_state`` restores a previous
        session's sequence-number log (see :meth:`export_audit_state`) —
        without it, a rollback staged across client restarts would be
        invisible. ``retry_policy`` governs resubmission after transient
        transport/execution faults; retries reuse the same authenticated
        query (same qid), which the portal accepts because a failed
        execution leaves the qid unburned. ``tenant`` stamps every query
        with the tenant whose MAC key this is (multi-tenant service
        deployments; see :meth:`QueryPortal.register_tenant_key`)."""
        self._submit = submit
        self._mac = MessageAuthenticator(mac_key)
        self.name = name
        self.tenant = tenant
        self._qid_counter = itertools.count()
        self._qid_salt = os.urandom(8)
        self._seen_sequence_numbers = (
            IntervalSet.from_bytes(audit_state)
            if audit_state is not None
            else IntervalSet()
        )
        self._lock = threading.Lock()
        self._retry_policy = retry_policy
        self._responses_lost = 0
        obs = default_registry()
        self._ctr_retries = obs.counter("client.submit_retries")
        self._ctr_responses_lost = obs.counter("client.responses_lost")

    def export_audit_state(self) -> bytes:
        """Serialize the rollback-audit log for persistent storage."""
        with self._lock:
            return self._seen_sequence_numbers.to_bytes()

    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        join_hint: Optional[str] = None,
        params: Optional[tuple] = None,
    ) -> ClientResult:
        """Run a query end to end with full verification.

        ``params`` binds the statement's ``?`` placeholders in order;
        the values are authenticated inside the query MAC together with
        the SQL text, so the host can substitute neither.

        Raises :class:`~repro.errors.ResponseLost` when the query
        executed inside the enclave but its endorsed response was lost
        in transport — detected as a replay rejection *during the retry
        loop* of a qid this client owns. That error is safe to recover
        from by calling :meth:`execute` again (a fresh qid); see the
        exception's docstring for why the audit state stays sound.
        """
        qid = self._fresh_qid()
        if params is not None:
            params = tuple(params)
        mac = self._mac.tag(*query_parts(qid, sql, params))
        query = AuthenticatedQuery(
            qid=qid, sql=sql, mac=mac, join_hint=join_hint,
            tenant=self.tenant, params=params,
        )
        # Resubmit the *same* authenticated query on transient faults:
        # the portal records a qid only after success, so the retry is
        # accepted as this qid's first execution, never as a replay.
        retried = False

        def on_retry(_attempt: int, _error: BaseException) -> None:
            nonlocal retried
            retried = True
            self._ctr_retries.inc()

        try:
            endorsed: EndorsedResult = self._retry_policy.call(
                lambda: self._submit(query), on_retry
            )
        except QueryReplayError as rejection:
            if not retried:
                # First attempt of a fresh qid rejected as a replay:
                # somebody else burned our qid — a genuine forgery
                # signal, not a lost response.
                raise
            # A replay rejection of our own qid after a transport
            # failure: the earlier attempt succeeded inside the portal
            # and only the response was lost. The query ran exactly
            # once; surface the typed recovery path.
            self._ctr_responses_lost.inc()
            with self._lock:
                self._responses_lost += 1
            raise ResponseLost(
                f"query {qid.hex()} executed but its response was lost "
                f"in transport; resubmit with a fresh execute() call",
                qid=qid,
                sql=sql,
            ) from rejection
        self._check(qid, endorsed)
        return ClientResult(
            columns=endorsed.columns,
            rows=endorsed.rows,
            rowcount=endorsed.rowcount,
            sequence_number=endorsed.sequence_number,
            verified=endorsed.verified,
        )

    # ------------------------------------------------------------------
    def _check(self, qid: bytes, endorsed: EndorsedResult) -> None:
        if endorsed.qid != qid:
            raise AuthenticationError("response does not match the query id")
        digest = digest_result(endorsed.columns, endorsed.rows, endorsed.rowcount)
        if digest != endorsed.result_digest:
            raise AuthenticationError("result digest mismatch")
        # The verified flag is authenticated: it selects which MAC the
        # enclave must have produced, so a host flipping the flag in
        # either direction fails this check.
        parts = endorsement_parts(qid, endorsed.sequence_number, digest, endorsed.verified)
        if not self._mac.verify(endorsed.endorsement, *parts):
            raise AuthenticationError(
                "result endorsement invalid: not produced by the enclave"
            )
        with self._lock:
            if not self._seen_sequence_numbers.add(endorsed.sequence_number):
                raise RollbackDetected(
                    f"sequence number {endorsed.sequence_number} repeated: "
                    f"the service was rolled back to an old state"
                )

    def _fresh_qid(self) -> bytes:
        with self._lock:
            n = next(self._qid_counter)
        return self._qid_salt + n.to_bytes(8, "little")

    # ------------------------------------------------------------------
    @property
    def audit_storage_intervals(self) -> int:
        """How many intervals the rollback audit currently keeps."""
        return self._seen_sequence_numbers.interval_count

    @property
    def queries_verified(self) -> int:
        return len(self._seen_sequence_numbers)

    @property
    def responses_lost(self) -> int:
        """Queries that executed but whose responses never arrived."""
        return self._responses_lost


def attested_connect(
    enclave,
    platform,
    expected_measurement: bytes,
    name: str = "client",
    challenge: Optional[bytes] = None,
    audit_state: Optional[bytes] = None,
) -> VeriDBClient:
    """Attest ``enclave`` and open an authenticated connection to it.

    The handshake checks a remote-attestation quote against the engine
    code identity the client expects; only then is the shared MAC key
    considered established (in a real deployment the key exchange would
    ride on the attested channel).
    """
    challenge = challenge if challenge is not None else generate_key()
    report = enclave.attest(challenge)
    verify_quote(platform, report, expected_measurement, challenge)
    return VeriDBClient(
        lambda query: enclave.ecall("submit_query", query),
        enclave.keychain.mac_key,
        name=name,
        audit_state=audit_state,
    )
