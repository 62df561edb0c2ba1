"""A shard worker: one full enclave-backed VeriDB behind the envelope.

Each worker owns a complete :class:`~repro.core.database.VeriDB` — its
own keychain, RSWS partitions, EPC model, epoch verifier, record cache
and plan cache — holding one partition of every table. The coordinator
talks to it exclusively through MAC'd envelopes (:mod:`.envelope`);
under the ``process`` transport the worker lives in its own
``multiprocessing`` process, which is what finally takes query
execution off the coordinator's GIL.

The worker also holds its half of the two-phase cross-shard epoch
close: ``epoch_prepare`` runs a full local verification pass and
answers with a digest binding ``(shard id, fleet round, local epoch,
RSWS synopsis)``; ``epoch_commit`` records the coordinator's fleet
digest and advances the committed round. Both phases insist on the
exact next round number — any disagreement is a fleet rollback or a
replayed close and raises :class:`~repro.errors.ShardEpochDesync`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Optional

from repro.catalog.schema import schema_from_dict
from repro.core.config import ShardConfig
from repro.core.database import VeriDB
from repro.core.recovery import recover_from_wal
from repro.crypto.mac import MessageAuthenticator
from repro.errors import ShardEpochDesync, VeriDBError
from repro.obs.fleet import FederationState, serialize_trace_segment
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace_context import TraceContext
from repro.shard.envelope import (
    FRAGMENT_MISS,
    encode_error,
    link_key_purpose,
    open_request,
    seal_reply,
)


def worker_config(config: ShardConfig, shard_id: int):
    """Derive one worker's VeriDBConfig from the fleet base config.

    A seeded fleet gives every worker enclave a distinct deterministic
    key seed (spaced so the platform key derived at ``seed + 1`` never
    collides across shards); a WAL-enabled fleet gives each worker its
    own log directory.
    """
    base = config.base
    key_seed = (
        None if base.key_seed is None else base.key_seed + (shard_id + 1) * 1000
    )
    wal_dir = (
        None
        if base.wal_dir is None
        else os.path.join(base.wal_dir, f"shard-{shard_id}")
    )
    return dataclasses.replace(base, key_seed=key_seed, wal_dir=wal_dir)


class ShardWorker:
    """Envelope-speaking request handler around one worker VeriDB."""

    def __init__(self, shard_id: int, config: ShardConfig, link_key: bytes):
        self.shard_id = shard_id
        # the worker's own registry is the metrics-federation source:
        # the coordinator pulls deltas from it over metrics_snapshot.
        # worker_metrics=False restores the zero-cost null registry.
        self.obs = MetricsRegistry() if config.worker_metrics else NULL_REGISTRY
        db_config = worker_config(config, shard_id)
        wal_dir = db_config.wal_dir
        if wal_dir is not None and os.path.isdir(wal_dir) and os.listdir(wal_dir):
            # a restarted worker: its dead predecessor's sealed log holds
            # the partition, and only verified recovery may reopen it
            self.db = recover_from_wal(wal_dir, db_config, registry=self.obs)
        else:
            self.db = VeriDB(db_config, registry=self.obs)
        self._federation = FederationState(self.obs)
        self._mac = MessageAuthenticator(link_key)
        self._last_request_id = 0
        self._seqno = 0
        self.closed = False
        #: committed fleet round and the digest that sealed it
        self.fleet_round = 0
        self.fleet_digest: Optional[bytes] = None
        self._prepared: Optional[tuple[int, bytes]] = None

    # ------------------------------------------------------------------
    def handle(self, blob: bytes) -> bytes:
        """Verify one request, run it, make it durable, and seal the reply.

        A reply means durable: the worker's log is committed before any
        reply is sealed, so nothing the coordinator has been told sits in
        a group-commit buffer when the worker dies. A failed commit
        answers with its error instead.
        """
        # the claimed request id is echoed even on failure so the
        # coordinator can match the (authenticated) error to its request
        claimed = int.from_bytes(blob[8:16], "little") if len(blob) >= 16 else 0
        try:
            request_id, op, payload = open_request(
                self._mac, self.shard_id, blob, self._last_request_id
            )
            self._last_request_id = request_id
            result = self._dispatch(op, payload)
        except VeriDBError as error:
            request_id, result = claimed, error
        if self.db.wal is not None:
            try:
                self.db.wal.commit()
            except VeriDBError as error:
                result = error
        if isinstance(result, VeriDBError):
            status, reply_payload = "err", encode_error(result)
        elif result is FRAGMENT_MISS:
            status, reply_payload = "miss", None
        else:
            status, reply_payload = "ok", result
        self._seqno += 1
        return seal_reply(
            self._mac,
            self.shard_id,
            request_id,
            self._seqno,
            status,
            reply_payload,
        )

    # ------------------------------------------------------------------
    def _dispatch(self, op: str, payload: dict) -> Any:
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise VeriDBError(f"unknown shard op {op!r}")
        return handler(payload)

    # -- SQL execution -------------------------------------------------
    def _op_stmt(self, payload: dict) -> Any:
        """Execute a pushed-down fragment by its coordinator-assigned id.

        The plan lives in the engine's plan cache under the fragment id,
        stamped with this worker's ``schema_version``; the request
        carries only ``fragment`` and ``params``. An id not held here
        (first use, eviction, restart) answers :data:`FRAGMENT_MISS`
        unless the request also carries the fragment's AST (``stmt``,
        the coordinator's resend), which is planned and cached.

        A request carrying ``trace`` (the coordinator's propagated
        trace/qid, MAC-covered inside the payload) executes under a
        worker-local :class:`TraceContext`; the per-operator frames are
        serialized into the reply as a ``segment`` the coordinator
        stitches into its own EXPLAIN ANALYZE tree.
        """
        params = payload["params"]
        trace_info = payload.get("trace")
        trace = None if trace_info is None else TraceContext(qid=trace_info["qid"])
        engine = self.db.engine
        start = perf_counter()
        with trace if trace is not None else nullcontext():
            entry = engine.fragment_entry(
                payload["fragment"], len(params), payload.get("stmt")
            )
            if entry is None:
                return FRAGMENT_MISS
            result = engine.execute_prepared(entry, params)
        reply = {
            "rows": result.rows,
            "rowcount": result.rowcount,
            "elapsed": perf_counter() - start,
        }
        if trace is not None:
            reply["segment"] = serialize_trace_segment(
                trace, result.plan, self.shard_id
            )
        return reply

    # -- DDL -----------------------------------------------------------
    def _op_create_table(self, payload: dict) -> bool:
        self.db.create_table(
            payload["name"], schema_from_dict(payload["schema"])
        )
        return True

    def _op_drop_table(self, payload: dict) -> bool:
        info = self.db.catalog.drop(payload["name"])
        info.store.destroy()
        return True

    # -- storage-level row operations (the proxy-store protocol) -------
    def _op_insert(self, payload: dict) -> bool:
        self.db.table(payload["table"]).insert(payload["row"])
        return True

    def _op_update(self, payload: dict) -> bool:
        return self.db.table(payload["table"]).update(
            payload["pk"], payload["updates"]
        )

    def _op_delete(self, payload: dict) -> bool:
        return self.db.table(payload["table"]).delete(payload["pk"])

    def _op_get(self, payload: dict):
        row, _proof = self.db.table(payload["table"]).get(payload["pk"])
        return row

    def _op_scan(self, payload: dict) -> list[tuple]:
        return self.db.table(payload["table"]).scan(
            payload.get("column"),
            payload.get("lo"),
            payload.get("hi"),
            payload.get("include_lo", True),
            payload.get("include_hi", True),
            columns=payload.get("columns"),
        )

    def _op_row_count(self, payload: dict) -> int:
        return self.db.table(payload["table"]).row_count

    def _op_table_names(self, payload: dict) -> list[str]:
        return self.db.catalog.table_names()

    # -- two-phase epoch close -----------------------------------------
    def _op_epoch_prepare(self, payload: dict) -> bytes:
        fleet_round = payload["round"]
        if fleet_round != self.fleet_round + 1:
            raise ShardEpochDesync(
                f"shard {self.shard_id} asked to prepare fleet round "
                f"{fleet_round} but its committed round is "
                f"{self.fleet_round}",
                shard=self.shard_id,
            )
        # the local verification pass is the whole point: a shard only
        # contributes a digest for state it just proved consistent
        self.db.verify_now()
        digest = hashlib.sha256()
        digest.update(b"shard-epoch")
        digest.update(self.shard_id.to_bytes(8, "little"))
        digest.update(fleet_round.to_bytes(8, "little"))
        digest.update(self.db.storage.vmem.epoch.to_bytes(8, "little"))
        digest.update(self.db._rsws_summary().encode("ascii"))
        prepared = digest.digest()
        self._prepared = (fleet_round, prepared)
        return prepared

    def _op_epoch_commit(self, payload: dict) -> int:
        fleet_round = payload["round"]
        if self._prepared is None or self._prepared[0] != fleet_round:
            raise ShardEpochDesync(
                f"shard {self.shard_id} has no prepared state for fleet "
                f"round {fleet_round}",
                shard=self.shard_id,
            )
        self.fleet_round = fleet_round
        self.fleet_digest = payload["fleet_digest"]
        self._prepared = None
        return fleet_round

    # -- fleet observability -------------------------------------------
    def _op_metrics_snapshot(self, payload: dict) -> dict:
        """Registry delta since the coordinator's previous poll."""
        return self._federation.collect()

    def _op_health(self, payload: dict) -> dict:
        """One heartbeat: the liveness/lag signals the monitor watches."""
        snapshot = self.obs.snapshot()

        def counter(name: str) -> int:
            return snapshot.get(name, {}).get("value", 0)

        wal = self.db.wal
        return {
            "shard": self.shard_id,
            "fleet_round": self.fleet_round,
            "epoch": self.db.storage.vmem.epoch,
            "wal_pending": 0 if wal is None else wal.pending_records,
            "wal_last_seq": 0 if wal is None else wal.last_seq,
            "cache_hits": counter("memory.cache_hits"),
            "cache_misses": counter("memory.cache_misses"),
            "epc": self.db.enclave.epc.usage(),
        }

    def _op_close(self, payload: dict) -> bool:
        self.closed = True
        return True


def worker_main(conn, shard_id: int, config: ShardConfig, link_key: bytes):
    """Process entry point: serve envelope requests over a Pipe."""
    worker = ShardWorker(shard_id, config, link_key)
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            break
        conn.send_bytes(worker.handle(blob))
        if worker.closed:
            break
    conn.close()


__all__ = ["ShardWorker", "worker_main", "worker_config", "link_key_purpose"]
