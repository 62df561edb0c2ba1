"""The concurrent multi-tenant query service.

:class:`QueryService` is the serving layer over a :class:`~repro.core.
database.VeriDB` instance — the piece that turns the in-process portal
into something hundreds of concurrent clients can share. It lives on the
*untrusted* side of the boundary (a real deployment would put a network
in front of it), which dictates the design:

* **Authentication is two-layered.** The service checks an API key and
  enforces quotas — availability controls an adversary who owns the host
  could bypass anyway. Integrity comes from the per-tenant MAC key
  registered with the in-enclave portal at tenant creation: queries are
  authenticated and results endorsed under the tenant's own key, so the
  service (or any other tenant) can neither forge a tenant's queries nor
  its results.
* **Admission control, not queueing.** A global in-flight cap plus
  per-tenant quotas and token-bucket rate limits reject excess arrivals
  immediately with typed errors (:class:`~repro.errors.ServiceOverloaded`,
  :class:`~repro.errors.TenantQuotaExceeded`,
  :class:`~repro.errors.TenantRateLimited`) — the 429 pattern. Rejected
  queries never reach the enclave and their qids stay unburned, so
  resubmission is always safe.
* **Dispatch runs where the query arrived when it can.** At most
  ``max_workers`` admitted queries execute at once (one slot each, one
  ECall per query). A blocking ``submit`` runs its query on the calling
  thread when a slot is free and no pooled query is waiting for one;
  otherwise it waits on the worker pool, so queued work runs before new
  arrivals. ``submit_async`` always hands back a pool future. Either way
  the execution starts from an empty ``contextvars`` context: the
  caller's trace, scoped registry or sink and parameter binding never
  reach it.
* **Shutdown drains.** ``drain()`` stops admission (typed
  :class:`~repro.errors.ServiceDraining` rejections) and waits for
  in-flight queries to finish, so no accepted query is abandoned with a
  burned qid and no response.

Everything is observable: ``service.*`` counters/histograms through the
bound registry (Prometheus-renderable), per-tenant counters, and
admit/reject/drain events on the default event sink.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from repro.core.client import VeriDBClient
from repro.core.database import VeriDB
from repro.core.portal import AuthenticatedQuery, EndorsedResult
from repro.errors import (
    ServiceDraining,
    ServiceOverloaded,
    TenantQuotaExceeded,
    TenantRateLimited,
    UnknownTenant,
)
from repro.faults import sites as fault_sites
from repro.faults.plane import default_fault_plane
from repro.obs import default_event_sink, default_registry
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.tenants import (
    TenantCredentials,
    TenantDirectory,
    TenantSession,
)


class QueryService:
    """Multi-tenant query service front-end over a VeriDB instance."""

    def __init__(
        self,
        db: VeriDB,
        config: ServiceConfig | None = None,
        registry=None,
        clock=time.monotonic,
    ):
        self.db = db
        self.config = config or ServiceConfig()
        self.obs = registry if registry is not None else default_registry()
        self.faults = default_fault_plane()
        self._clock = clock
        self._directory = TenantDirectory()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="veridb-service",
        )
        # one slot per query inside the enclave, inline or pooled
        self._slots = threading.BoundedSemaphore(self.config.max_workers)
        # _idle guards the admission state (in-flight count, pooled
        # queries still waiting for a slot, draining flag) and doubles
        # as the drain condition variable
        self._idle = threading.Condition(threading.Lock())
        self._in_flight = 0
        self._queued = 0
        self._draining = False
        self._closed = False
        # what stats() reports, kept whether or not the registry records:
        # admitted/completed under _idle, rejections by reason under _tally
        self._admitted = 0
        self._completed = 0
        self._rejected = dict.fromkeys(("rate_limited", "quota", "overload", "draining"), 0)
        self._tally = threading.Lock()

        self._ctr_requests = self.obs.counter("service.requests")
        self._ctr_admitted = self.obs.counter("service.admitted")
        self._ctr_completed = self.obs.counter("service.completed")
        self._ctr_errors = self.obs.counter("service.execute_errors")
        self._ctr_auth_failures = self.obs.counter("service.auth_failures")
        self._ctr_rej_rate = self.obs.counter("service.rejected_rate_limited")
        self._ctr_rej_quota = self.obs.counter("service.rejected_quota")
        self._ctr_rej_overload = self.obs.counter("service.rejected_overload")
        self._ctr_rej_draining = self.obs.counter("service.rejected_draining")
        self._ctr_responses_lost = self.obs.counter("service.responses_lost")
        self._hist_queue = self.obs.histogram("service.queue_seconds")
        self._hist_execute = self.obs.histogram("service.execute_seconds")
        self._hist_latency = self.obs.histogram("service.latency_seconds")
        self.obs.gauge_fn("service.in_flight", lambda: self._in_flight)
        self.obs.gauge_fn("service.tenants", lambda: len(self._directory))

    # ------------------------------------------------------------------
    # tenant lifecycle
    # ------------------------------------------------------------------
    def register_tenant(
        self,
        tenant_id: str,
        quota: TenantQuota | None = None,
        api_key: str | None = None,
    ) -> TenantCredentials:
        """Create a tenant: derive its MAC key, install it in the portal.

        The MAC key is derived from the enclave key chain (modeling the
        per-tenant attested key exchange), so with a seeded instance the
        whole handshake is deterministic. Returns both credentials; the
        API key is only the untrusted bearer token, the MAC key is what
        the tenant's integrity rests on.
        """
        mac_key = self.db.enclave.keychain.key_for(f"tenant-mac:{tenant_id}")
        credentials = TenantCredentials(
            tenant_id=tenant_id,
            api_key=api_key if api_key is not None else os.urandom(16).hex(),
            mac_key=mac_key,
        )
        session = TenantSession(
            credentials,
            quota if quota is not None else self.config.default_quota,
            clock=self._clock,
            registry=self.obs,
        )
        # portal first: a tenant must never be routable before the
        # enclave can authenticate it
        self.db.portal.register_tenant_key(tenant_id, mac_key)
        self._directory.register(session)
        return credentials

    def connect(
        self,
        credentials: TenantCredentials,
        name: str | None = None,
        audit_state: bytes | None = None,
    ) -> VeriDBClient:
        """A verifying client whose transport is this service.

        The client MACs queries under the tenant key and audits sequence
        numbers exactly as over the direct ECall transport; the service
        adds only admission control in between.
        """
        return VeriDBClient(
            lambda query: self.submit(credentials.api_key, query),
            credentials.mac_key,
            name=name if name is not None else credentials.tenant_id,
            audit_state=audit_state,
            tenant=credentials.tenant_id,
        )

    # ------------------------------------------------------------------
    # the submission pipeline
    # ------------------------------------------------------------------
    def submit(self, api_key: str, query: AuthenticatedQuery) -> EndorsedResult:
        """Admit and answer one query (blocking).

        The query runs on the calling thread when one of the
        ``max_workers`` slots is free and no pooled query is waiting for
        one; otherwise it queues on the worker pool behind them.
        """
        tenant, admitted_at = self._admit(api_key, query)
        # _queued is read unlocked: an arrival racing a pooled query's
        # dispatch may go either side of it, never past a waiting one
        if self._queued or not self._slots.acquire(blocking=False):
            return self._dispatch(tenant, query, admitted_at).result()
        ok = False
        try:
            # an empty context, as on a pool thread
            result = contextvars.Context().run(
                self._run, tenant, query, admitted_at
            )
            ok = True
        finally:
            self._slots.release()
            self._settle(tenant, ok)
        return result

    def submit_async(
        self, api_key: str, query: AuthenticatedQuery
    ) -> "Future[EndorsedResult]":
        """Admit ``query`` and dispatch it to the worker pool.

        All admission-control rejections raise *synchronously* (typed
        :class:`~repro.errors.ServiceError` subclasses) — a returned
        future means the query was admitted and will execute.
        """
        tenant, admitted_at = self._admit(api_key, query)
        return self._dispatch(tenant, query, admitted_at)

    def _admit(
        self, api_key: str, query: AuthenticatedQuery
    ) -> tuple[TenantSession, float]:
        """Authenticate and admit ``query`` or raise the typed rejection."""
        self._ctr_requests.inc()
        try:
            tenant = self._directory.lookup(api_key)
        except UnknownTenant:
            self._ctr_auth_failures.inc()
            self._emit_reject(None, query, "unknown_tenant")
            raise
        if not tenant.bucket.try_acquire():
            self._ctr_rej_rate.inc()
            self._emit_reject(tenant, query, "rate_limited")
            raise TenantRateLimited(
                f"tenant {tenant.tenant_id!r} exceeded "
                f"{tenant.quota.rate_per_second}/s"
            )
        if not tenant.try_admit():
            self._ctr_rej_quota.inc()
            self._emit_reject(tenant, query, "quota")
            raise TenantQuotaExceeded(
                f"tenant {tenant.tenant_id!r} has "
                f"{tenant.quota.max_in_flight} queries in flight"
            )
        with self._idle:
            if self._draining:
                tenant.release()
                self._ctr_rej_draining.inc()
                self._emit_reject(tenant, query, "draining")
                raise ServiceDraining("service is draining; resubmit later")
            if self._in_flight >= self.config.max_in_flight:
                tenant.release()
                self._ctr_rej_overload.inc()
                self._emit_reject(tenant, query, "overload")
                raise ServiceOverloaded(
                    f"service at max in-flight "
                    f"({self.config.max_in_flight}); back off and retry"
                )
            self._in_flight += 1
            self._admitted += 1
        self._ctr_admitted.inc()
        sink = default_event_sink()
        if sink.enabled:
            sink.emit(
                {
                    "type": "service_admit",
                    "tenant": tenant.tenant_id,
                    "qid": query.qid.hex(),
                }
            )
        return tenant, time.perf_counter() if self.obs.enabled else 0.0

    def _dispatch(
        self,
        tenant: TenantSession,
        query: AuthenticatedQuery,
        admitted_at: float,
    ) -> "Future[EndorsedResult]":
        with self._idle:
            self._queued += 1
        future: Future = self._pool.submit(
            self._pooled, tenant, query, admitted_at
        )
        future.add_done_callback(lambda f: self._finish(tenant, f))
        return future

    def _pooled(
        self,
        tenant: TenantSession,
        query: AuthenticatedQuery,
        admitted_at: float,
    ) -> EndorsedResult:
        """Pool-thread body: wait for a slot, then run."""
        with self._slots:
            with self._idle:
                self._queued -= 1
            return self._run(tenant, query, admitted_at)

    def _run(
        self,
        tenant: TenantSession,
        query: AuthenticatedQuery,
        admitted_at: float,
    ) -> EndorsedResult:
        """One ECall per query, fully accounted, on whichever thread runs it."""
        timed = self.obs.enabled  # no clock read for a registry that records nothing
        if timed:
            executing = time.perf_counter()
            self._hist_queue.observe(executing - admitted_at)
        # the front-end worker dies before reaching the enclave: the qid
        # is unburned, an identical client retry is safe
        self.faults.check(fault_sites.SERVICE_DISPATCH_ABORT)
        result = self.db.enclave.ecall("submit_query", query)
        if timed:
            done = time.perf_counter()
            self._hist_execute.observe(done - executing)
        # the transport drops the endorsed response *after* the portal
        # burned the qid — the client's same-qid retry will be rejected
        # as a replay and must surface a typed ResponseLost
        try:
            self.faults.check(fault_sites.SERVICE_RESPONSE_LOST)
        except BaseException:
            self._ctr_responses_lost.inc()
            raise
        if timed:
            self._hist_latency.observe(done - admitted_at)
        return result

    def _finish(self, tenant: TenantSession, future: Future) -> None:
        if future.cancelled():
            # cancelled before a pool thread picked it up: it no longer
            # waits for a slot
            with self._idle:
                self._queued -= 1
            self._settle(tenant, False)
        else:
            self._settle(tenant, future.exception() is None)

    def _settle(self, tenant: TenantSession, ok: bool) -> None:
        """Count the outcome and hand back what admission took.

        Counted first, so a drained service has counted every query.
        """
        tenant.release()
        if ok:
            self._ctr_completed.inc()
            tenant.ctr_queries.inc()
        else:
            self._ctr_errors.inc()
        with self._idle:
            self._completed += ok
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.notify_all()

    def _emit_reject(self, tenant, query, reason: str) -> None:
        if tenant is not None:  # else an unknown tenant: an auth failure
            tenant.count_rejection()
            with self._tally:
                self._rejected[reason] += 1
        sink = default_event_sink()
        if sink.enabled:
            sink.emit(
                {
                    "type": "service_reject",
                    "tenant": tenant.tenant_id if tenant else None,
                    "qid": query.qid.hex(),
                    "reason": reason,
                }
            )

    # ------------------------------------------------------------------
    # graceful shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting and wait for in-flight queries to finish.

        Returns True when the service emptied within the budget
        (``config.drain_timeout`` by default). Already-admitted queries
        always run to completion — a drained service leaves no client
        holding a burned qid without its response.
        """
        budget = timeout if timeout is not None else self.config.drain_timeout
        with self._idle:
            self._draining = True
            waiting = self._in_flight
        sink = default_event_sink()
        if sink.enabled:
            sink.emit({"type": "service_drain", "in_flight": waiting})
        with self._idle:
            drained = self._idle.wait_for(
                lambda: self._in_flight == 0, timeout=budget
            )
        if drained and self.db.wal is not None:
            # the quiesced log is flushed so a clean shutdown loses
            # nothing — every endorsed statement is already durable
            # (commit-before-endorse), this covers admin-path writes
            self.db.wal.commit()
        if sink.enabled:
            sink.emit({"type": "service_drained", "clean": drained})
        return drained

    def close(self) -> bool:
        """Drain, then shut the worker pool down. Idempotent."""
        if self._closed:
            return True
        drained = self.drain()
        self._pool.shutdown(wait=True)
        self._closed = True
        return drained

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def draining(self) -> bool:
        return self._draining

    def tenant(self, tenant_id: str) -> TenantSession:
        return self._directory.by_id(tenant_id)

    def stats(self) -> dict:
        return {
            "tenants": self._directory.tenant_ids(),
            "in_flight": self._in_flight,
            "draining": self._draining,
            "admitted": self._admitted,
            "completed": self._completed,
            "rejected": dict(self._rejected),
        }

    def health(self) -> dict:
        """Service + backend health in one view.

        Always reports the service's own liveness; a sharded backend
        (anything exposing ``health()``, i.e.
        :class:`~repro.shard.sharded.ShardedDatabase`) contributes its
        fleet report — worker heartbeats, SLO window, active alerts —
        under ``"fleet"``, and the combined ``"healthy"`` flag is the
        conjunction of both layers.
        """
        report = {
            "healthy": not self._draining,
            "draining": self._draining,
            "in_flight": self._in_flight,
        }
        backend_health = getattr(self.db, "health", None)
        if callable(backend_health):
            fleet = backend_health()
            report["fleet"] = fleet
            report["healthy"] = report["healthy"] and fleet.get(
                "healthy", True
            )
        return report


def serve(db: VeriDB, config: ServiceConfig | None = None, **kwargs) -> QueryService:
    """Convenience constructor mirroring ``VeriDB(...)`` ergonomics."""
    return QueryService(db, config=config, **kwargs)


__all__ = [
    "QueryService",
    "ServiceConfig",
    "TenantCredentials",
    "TenantQuota",
    "serve",
]
