"""The assembled VeriDB server.

One :class:`VeriDB` owns the simulated enclave, the verifiable storage
engine, the catalog, the SQL engine and the query portal. The portal is
reachable only through an ECall, so the Figure 2 workflow is reproduced
end to end: clients attest the enclave, establish the shared MAC key,
and submit authenticated queries; the complete query — compilation,
execution, access-method verification — runs inside the boundary with a
single crossing per query.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.catalog.catalog import Catalog, TableInfo
from repro.catalog.schema import Schema
from repro.core.client import VeriDBClient, attested_connect
from repro.core.config import VeriDBConfig
from repro.core.incident import IncidentLog
from repro.core.portal import QueryPortal
from repro.crypto.keys import KeyChain, generate_key
from repro.crypto.prf import DIGEST_SIZE
from repro.errors import VerificationFailure
from repro.obs import default_registry
from repro.sgx.attestation import PlatformQuotingKey
from repro.sgx.costs import CycleMeter
from repro.sgx.enclave import Enclave
from repro.sql.executor import ExecutionResult, QueryEngine
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable, row_chunks

#: measured identity of the engine build (what clients expect to attest)
ENGINE_CODE_IDENTITY = b"veridb-engine-v1.0"


class VeriDB:
    """An SGX-based verifiable database instance."""

    def __init__(self, config: VeriDBConfig | None = None, registry=None):
        self.config = config or VeriDBConfig()
        # The observability registry every layer binds its instruments
        # to; the process default (a no-op registry unless the caller
        # installed one) keeps the unobserved path zero-cost.
        self.obs = registry if registry is not None else default_registry()
        keychain = KeyChain(seed=self.config.key_seed)
        platform_seed = (
            None if self.config.key_seed is None else self.config.key_seed + 1
        )
        self.platform = PlatformQuotingKey(generate_key(seed=platform_seed))
        self.enclave = Enclave(
            name="veridb",
            keychain=keychain,
            platform=self.platform,
            meter=CycleMeter(registry=self.obs),
        )
        self.enclave.load_code(ENGINE_CODE_IDENTITY)
        self.storage = StorageEngine(
            self.config.storage, keychain=keychain, registry=self.obs
        )
        # batched verified reads bill one amortized ECall per batch
        self.storage.attach_meter(self.enclave.meter)
        # record-cache residency competes for EPC with everything else
        # inside the enclave; over-budget caches thrash, not win
        self.storage.attach_epc(self.enclave.epc)
        self.catalog = Catalog()
        self.engine = QueryEngine(self.catalog, self.storage, epc=self.enclave.epc)
        self.incidents = IncidentLog(registry=self.obs)
        self.portal = QueryPortal(
            self.engine,
            keychain.mac_key,
            self.enclave.counter,
            registry=self.obs,
            verifier_degraded=self._verifier_degraded,
            incidents=self.incidents,
            trace_sample_rate=self.config.trace_sample_rate,
        )
        self.enclave.register_ecall("submit_query", self.portal.submit)
        if self.config.ops_per_page_scan is not None:
            self.storage.enable_continuous_verification(
                self.config.ops_per_page_scan
            )
        # account the trusted synopsis against the EPC model; refreshed
        # lazily whenever stats are read
        self.enclave.epc.allocate(
            "verification-synopsis", self.storage.vmem.enclave_state_bytes()
        )
        self._expected_measurement = self.enclave.measurement
        self.wal = None
        if self.config.wal_dir is not None:
            from repro.wal import WriteAheadLog

            self.attach_wal(
                WriteAheadLog(
                    self.config.wal_dir,
                    key=keychain.key_for("wal"),
                    seal=self.enclave.seal,
                    unseal=self.enclave.unseal,
                    counter_read=self.enclave.counter.read,
                    group_commit=self.config.wal_group_commit,
                    fsync=self.config.wal_fsync,
                    registry=self.obs,
                )
            )

    # ------------------------------------------------------------------
    # client connections
    # ------------------------------------------------------------------
    def connect(
        self,
        name: str = "client",
        challenge: Optional[bytes] = None,
        expected_measurement: Optional[bytes] = None,
        audit_state: Optional[bytes] = None,
    ) -> VeriDBClient:
        """Attest the enclave and open an authenticated connection
        (see :func:`~repro.core.client.attested_connect`)."""
        return attested_connect(
            self.enclave,
            self.platform,
            self._expected_measurement
            if expected_measurement is None
            else expected_measurement,
            name=name,
            challenge=challenge,
            audit_state=audit_state,
        )

    # ------------------------------------------------------------------
    # server-side conveniences (trusted administration path)
    # ------------------------------------------------------------------
    def sql(
        self,
        statement: str,
        join_hint: Optional[str] = None,
        params: Optional[tuple] = None,
    ) -> ExecutionResult:
        """Execute SQL directly (admin/benchmark path, skips the portal).

        ``params`` binds the statement's ``?`` placeholders in order.
        """
        return self.engine.execute(
            statement, join_hint=join_hint, params=params
        )

    def prepare(self, statement: str, join_hint: Optional[str] = None):
        """Parse and plan a statement once; execute it many times.

        Returns a :class:`~repro.sql.executor.PreparedStatement`;
        repeated executions (and repeated ``prepare`` calls for the
        same statement shape) are served from the engine's
        schema-versioned plan cache.
        """
        return self.engine.prepare(statement, join_hint)

    def explain_analyze(self, statement: str, join_hint: Optional[str] = None):
        """Execute ``statement`` under a trace and annotate its plan.

        Returns an :class:`~repro.sql.explain.ExplainAnalyzeResult`:
        ``.text`` is the rendered plan tree with per-operator verified
        reads, cache hits/misses, boundary crossings, simulated cycles
        and self-times; ``.data`` is the same as a dict whose
        ``totals`` match the per-query registry deltas. Tracing is
        always on for this call, regardless of the configured sample
        rate.
        """
        from repro.sql.explain import explain_analyze

        return explain_analyze(self.engine, statement, join_hint=join_hint)

    def session(self, name: str = "session", lock_timeout: float = 5.0):
        """Open a transactional statement session (BEGIN/COMMIT/ROLLBACK).

        See :class:`repro.sql.session.Session` for the isolation model.
        """
        from repro.sql.session import Session

        return Session(self.engine, name=name, lock_timeout=lock_timeout)

    def create_table(self, name: str, schema: Schema) -> VerifiableTable:
        """Create a table from schema objects (programmatic DDL)."""
        store = VerifiableTable(name, schema, self.storage)
        self.catalog.register(TableInfo(name, schema, store))
        return store

    def table(self, name: str) -> VerifiableTable:
        """Direct handle to a table's storage interface."""
        return self.catalog.lookup(name).store

    def load_rows(self, name: str, rows: Iterable[tuple]) -> int:
        """Bulk-insert rows through the verified write path in chunks of
        ``storage.config.BATCH_ROWS``; returns how many were stored. A
        failing chunk is rejected whole; the chunks before it stay."""
        store = self.table(name)
        count = 0
        for chunk in row_chunks(rows):
            store.insert_many(chunk)
            count += len(chunk)
        return count

    # ------------------------------------------------------------------
    # verification control
    # ------------------------------------------------------------------
    def _verifier_degraded(self) -> bool:
        """Graceful-degradation probe the portal consults per query."""
        verifier = self.storage.verifier
        return verifier is not None and verifier.background_degraded()

    def verify_now(self) -> None:
        """Run one synchronous verification pass over all storage.

        A detected inconsistency both raises and goes on the incident
        log, so the alarm is durable evidence even if the caller
        swallows the exception.
        """
        try:
            self.storage.verify_now()
        except VerificationFailure as alarm:
            self.incidents.open("verification-alarm", str(alarm))
            raise

    # ------------------------------------------------------------------
    # durability (write-ahead log)
    # ------------------------------------------------------------------
    def attach_wal(self, wal) -> None:
        """Thread a write-ahead log through every write path.

        Called at construction when ``config.wal_dir`` is set, and by
        crash recovery after it has verified, replayed and resumed an
        existing log. The catalog logs DDL and hands the log to each
        registered table's store (DML); the portal flushes it before
        endorsing; the epoch verifier checkpoints it after every clean
        pass.
        """
        self.wal = wal
        self.catalog.wal = wal
        for name in self.catalog.table_names():
            self.catalog.lookup(name).store.wal = wal
        self.portal.attach_wal(wal)
        if self.storage.verifier is not None:
            self.storage.verifier.on_pass_complete = self._wal_checkpoint

    def checkpoint(self) -> None:
        """Flush the log and write a sealed checkpoint record."""
        if self.wal is not None:
            self.wal.commit()
            self._wal_checkpoint()

    def _wal_checkpoint(self) -> None:
        wal = self.wal
        if wal is None:
            return
        # the RSWS summary is computed first, releasing every partition
        # lock before the wal lock is taken (writers take table→wal, the
        # summary takes partition-only, so no lock-order cycle exists)
        summary = self._rsws_summary()
        wal.checkpoint(
            epoch=self.storage.vmem.epoch,
            counter=self.enclave.counter.read(),
            rsws_hex=summary,
        )

    def _rsws_summary(self) -> str:
        """Fold every partition's live RS/WS digests into one hex digest.

        A point-in-time fingerprint of the enclave synopsis at epoch
        close; sealed into the checkpoint so the log carries evidence of
        *which* verified state it extends. It is advisory (recovery
        re-derives fresh digests by replaying — timestamps make the raw
        digests non-reproducible) but ties each checkpoint to a concrete
        verification epoch for audit.
        """
        summary = 0
        for partition in self.storage.vmem.rsws.partitions:
            partition.acquire()
            try:
                for generation in (*partition.rs, *partition.ws):
                    summary ^= generation
            finally:
                partition.release()
        return summary.to_bytes(DIGEST_SIZE, "little").hex()

    def start_background_verification(self, pause_seconds: float = 0.0) -> None:
        if self.storage.verifier is not None:
            self.storage.verifier.start_background(pause_seconds)

    def stop_background_verification(self) -> None:
        if self.storage.verifier is not None:
            self.storage.verifier.stop_background()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        vmem = self.storage.vmem
        self.enclave.epc.resize(
            "verification-synopsis", vmem.enclave_state_bytes()
        )
        return {
            "tables": self.catalog.table_names(),
            "memory": vars(vmem.stats).copy(),
            "rsws_operations": vmem.rsws.total_operations(),
            "rsws_contention_waits": vmem.rsws.total_contention_waits(),
            "prf_calls": vmem.prf.calls,
            "enclave_state_bytes": vmem.enclave_state_bytes(),
            "cycles": self.enclave.meter.snapshot(),
            "epc": self.enclave.epc.usage(),
            "verifier": (
                vars(self.storage.verifier.stats).copy()
                if self.storage.verifier is not None
                else None
            ),
            "queries_served": self.portal.seen_query_count(),
            "metrics": self.obs.snapshot(),
        }
