"""The sharded coordinator: one portal, N enclave workers.

:class:`ShardedDatabase` presents the same surface as
:class:`~repro.core.database.VeriDB` — ``execute``/``prepare``/
``explain_analyze``/``create_table``/``load_rows``/``verify_now``/
``connect`` — over a fleet of enclave workers, each a complete VeriDB
holding one partition of every table:

* DDL broadcasts to every worker and registers a
  :class:`~repro.shard.proxy.ShardProxyStore` in the coordinator
  catalog, so the coordinator's own planner/executor see a normal
  table;
* the coordinator engine plans every SELECT through the
  :class:`~repro.shard.router.ScatterRouter` first — a pushdown-eligible
  query's cached plan *is* its scatter-gather template (verified
  partial-aggregate merge included); everything else runs through the
  unmodified engine over the proxy stores (gather mode);
* the coordinator runs its own enclave and portal, so attested clients
  submit MAC'd queries exactly as against a single instance — the
  fleet is invisible above the portal;
* :meth:`verify_now` is the cross-shard epoch close: a two-phase
  protocol that first collects a per-shard digest from a full local
  verification pass on every worker (*prepare*), binds them into one
  fleet digest, and only then commits the advanced fleet round
  everywhere — so "verified" always refers to one consistent
  fleet-wide cut, and a worker that missed a round refuses with
  :class:`~repro.errors.ShardEpochDesync`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Iterable, Optional

from repro.catalog.catalog import Catalog, TableInfo
from repro.catalog.schema import Schema, schema_from_ddl, schema_to_dict
from repro.core.client import VeriDBClient, attested_connect
from repro.core.config import ShardConfig
from repro.core.database import ENGINE_CODE_IDENTITY
from repro.core.incident import IncidentLog
from repro.core.portal import QueryPortal
from repro.crypto.keys import KeyChain, generate_key
from repro.obs import default_registry
from repro.obs.fleet import HealthMonitor, fold_metric_delta
from repro.sgx.attestation import PlatformQuotingKey
from repro.sgx.costs import CycleMeter
from repro.sgx.enclave import Enclave
from repro.shard.envelope import link_key_purpose
from repro.shard.plan import ShardGatherOp
from repro.shard.proxy import ShardProxyStore
from repro.shard.router import ScatterRouter
from repro.shard.transport import build_link
from repro.sql.ast_nodes import CreateTable, Select
from repro.sql.executor import (
    ExecutionResult,
    PreparedStatement,
    QueryEngine,
)
from repro.storage.engine import StorageEngine
from repro.storage.table_store import row_chunks


def _pushed(plan) -> bool:
    """Whether a SELECT plan scatters fragments (vs gather mode)."""
    return plan is not None and any(
        isinstance(op, ShardGatherOp) for op in plan.walk()
    )


class ShardedDatabase:
    """A scatter-gather VeriDB over ``config.shard_count`` enclaves."""

    def __init__(self, config: Optional[ShardConfig] = None, registry=None):
        self.config = config or ShardConfig()
        self.obs = registry if registry is not None else default_registry()
        # the fleet keychain mints one link key per shard; each worker
        # enclave internally derives its own independent key material
        keychain = KeyChain(seed=self.config.base.key_seed)
        self.links = [
            build_link(
                shard_id,
                self.config,
                keychain.key_for(link_key_purpose(shard_id)),
            )
            for shard_id in range(self.config.shard_count)
        ]
        platform_seed = (
            None
            if self.config.base.key_seed is None
            else self.config.base.key_seed + 1
        )
        self.platform = PlatformQuotingKey(generate_key(seed=platform_seed))
        self.enclave = Enclave(
            name="veridb-coordinator",
            keychain=keychain,
            platform=self.platform,
            meter=CycleMeter(registry=self.obs),
        )
        self.enclave.load_code(ENGINE_CODE_IDENTITY)
        # the coordinator's local storage engine only hosts planner
        # scaffolding (spill/knobs); rows live in the workers, whose
        # own verified-memory stacks carry the integrity argument
        coordinator_storage = dataclasses.replace(
            self.config.base.storage,
            verification=False,
            spill_threshold_rows=None,
        )
        self.storage = StorageEngine(
            coordinator_storage, keychain=keychain, registry=self.obs
        )
        self.catalog = Catalog()
        self.engine = QueryEngine(
            self.catalog,
            self.storage,
            epc=self.enclave.epc,
            select_planner=self._plan_select,
        )
        self.router = ScatterRouter(
            self.links, self.config, self.catalog, self.engine.planner, self.obs
        )
        self.incidents = IncidentLog(registry=self.obs)
        self.portal = QueryPortal(
            self,
            keychain.mac_key,
            self.enclave.counter,
            registry=self.obs,
            trace_sample_rate=self.config.base.trace_sample_rate,
        )
        self.enclave.register_ecall("submit_query", self.portal.submit)
        self._expected_measurement = self.enclave.measurement
        self.wal = None  # durability is per-worker (each has its own log)
        self._fleet_round = 0
        self.fleet_digest: Optional[bytes] = None
        self._ctr_epoch_closes = self.obs.counter("shard.epoch_closes")
        self._ctr_fallback = self.obs.counter("shard.fallback_gather")
        self.monitor = HealthMonitor(
            poll=lambda shard_id: self.router.call(shard_id, "health", {}),
            shard_ids=range(self.config.shard_count),
            coordinator_round=lambda: self._fleet_round,
            registry=self.obs,
            on_poll=(
                self.federate_metrics if self.config.federate_metrics else None
            ),
        )
        if self.config.health_interval > 0:
            self.monitor.start(self.config.health_interval)

    # ------------------------------------------------------------------
    # client connections (same attestation handshake as VeriDB)
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
    # SQL surface
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        join_hint: Optional[str] = None,
        params: Optional[tuple] = None,
        tenant: Optional[str] = None,
    ) -> ExecutionResult:
        values = () if params is None else tuple(params)
        entry = self.engine.statement_entry(sql, join_hint, tenant=tenant)
        return self._execute_entry(entry, values, join_hint)

    sql = execute  # admin-path alias, mirroring VeriDB.sql

    def _plan_select(self, stmt: Select, join_hint: Optional[str]):
        pushed = self.router.plan_select(stmt)
        if pushed is not None:
            return pushed
        # gather mode: the unmodified planner over the proxy stores
        return self.engine.planner.plan_select(stmt, join_hint)

    def _execute_entry(self, entry, values: tuple, join_hint=None):
        stmt = entry.stmt
        if isinstance(stmt, CreateTable):
            return self._run_create(stmt)
        if isinstance(stmt, Select) and not _pushed(entry.select_template):
            self._ctr_fallback.inc()
        return self.engine.execute_prepared(entry, values, join_hint=join_hint)

    def prepare(self, statement: str, join_hint: Optional[str] = None):
        return PreparedStatement(
            self.engine,
            statement,
            join_hint,
            executor=lambda entry, values: self._execute_entry(
                entry, values, join_hint
            ),
        )

    def explain_analyze(self, statement: str, join_hint: Optional[str] = None):
        from repro.sql.explain import explain_analyze

        return explain_analyze(self, statement, join_hint=join_hint)

    # ------------------------------------------------------------------
    # DDL / data loading
    # ------------------------------------------------------------------
    def _run_create(self, stmt: CreateTable) -> ExecutionResult:
        self.create_table(stmt.name, schema_from_ddl(stmt))
        return ExecutionResult()

    def create_table(self, name: str, schema: Schema) -> ShardProxyStore:
        """Create one partition of the table on every worker."""
        # validate the configured shard key before any worker mutates
        self.config.shard_key_for(name, schema)
        store = ShardProxyStore(name, schema, self.router, self.config)
        self.catalog.register(TableInfo(name, schema, store))
        try:
            self.router.broadcast(
                "create_table",
                {"name": name, "schema": schema_to_dict(schema)},
            )
        except Exception:
            self.catalog.drop(name)
            raise
        return store

    def table(self, name: str) -> ShardProxyStore:
        return self.catalog.lookup(name).store

    def load_rows(self, name: str, rows: Iterable[tuple]) -> int:
        """Bulk-insert rows in chunks of ``storage.config.BATCH_ROWS``;
        returns how many were stored. The chunks before a failing one
        stay; an owner shard rejects its part of a chunk whole."""
        store = self.table(name)
        count = 0
        for chunk in row_chunks(rows):
            store.insert_many(chunk)
            count += len(chunk)
        return count

    # ------------------------------------------------------------------
    # cross-shard epoch close (two-phase)
    # ------------------------------------------------------------------
    def verify_now(self) -> None:
        """Close one fleet-wide verification epoch across all shards.

        Phase 1 (*prepare*): every worker runs a full local
        verification pass and answers with a digest binding its shard
        id, the proposed fleet round, its local epoch and its RSWS
        synopsis. Any local inconsistency aborts the close with the
        worker's own typed :class:`~repro.errors.VerificationFailure`,
        re-raised here; any round disagreement raises
        :class:`~repro.errors.ShardEpochDesync`.

        Phase 2 (*commit*): the per-shard digests are folded (in shard
        order) into one fleet digest that every worker records alongside
        the advanced round — the fleet-wide cut the next close must
        extend.
        """
        fleet_round = self._fleet_round + 1
        digests = self.router.broadcast("epoch_prepare", {"round": fleet_round})
        fold = hashlib.sha256()
        fold.update(b"fleet-epoch")
        fold.update(fleet_round.to_bytes(8, "little"))
        for digest in digests:
            fold.update(digest)
        fleet_digest = fold.digest()
        self.router.broadcast(
            "epoch_commit",
            {"round": fleet_round, "fleet_digest": fleet_digest},
        )
        self._fleet_round = fleet_round
        self.fleet_digest = fleet_digest
        self._ctr_epoch_closes.inc()

    # ------------------------------------------------------------------
    # fleet observability
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """One fleet health check: heartbeats, SLO window, active alerts.

        Polls every worker over the authenticated link, runs the
        threshold alert rules, samples the rolling-window SLO, and —
        when ``config.federate_metrics`` is on — folds each worker's
        registry delta into the coordinator registry under its
        ``shard`` label. The same check runs periodically on a daemon
        thread when ``config.health_interval`` > 0.
        """
        return self.monitor.check()

    def federate_metrics(self) -> int:
        """Pull every worker's registry delta into the fleet view.

        Returns the number of series folded. Workers built with
        ``worker_metrics=False`` answer with empty deltas.
        """
        deltas = self.router.broadcast("metrics_snapshot", {})
        folded = 0
        for shard_id, delta in enumerate(deltas):
            folded += fold_metric_delta(
                self.obs, delta, {"shard": str(shard_id)}
            )
        return folded

    def restart_worker(self, shard_id: int) -> None:
        """Respawn one worker after a crash.

        When ``base.wal_dir`` is set the new worker recovers its
        partition from the dead one's sealed log (verified, or refused
        with :class:`~repro.errors.RecoveryIntegrityError`); without a
        log it comes back empty. Either way this restores the transport
        and worker process so the health monitor's ``worker_down``
        alert can clear.
        """
        self.links[shard_id].restart()

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "tables": self.catalog.table_names(),
            "shard_count": self.config.shard_count,
            "fleet_round": self._fleet_round,
            "fleet_digest": (
                None if self.fleet_digest is None else self.fleet_digest.hex()
            ),
            "queries_served": self.portal.seen_query_count(),
            "metrics": self.obs.snapshot(),
        }

    def close(self) -> None:
        self.monitor.stop()
        self.router.close()
        for link in self.links:
            link.close()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
