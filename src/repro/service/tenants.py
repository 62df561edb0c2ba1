"""Tenant sessions: API keys, per-tenant MAC keys, quotas, rate limits.

A *tenant* is one customer of the service. Registration establishes two
secrets: an **API key** (the bearer credential the untrusted front-end
checks — losing it lets an attacker spend the tenant's quota, nothing
more) and a **MAC key** (the enclave-shared key that actually
authenticates queries and endorses results — losing it breaks the
tenant's integrity guarantees). The separation mirrors the paper's trust
split: the service process is part of the untrusted host, so API-key
checks, quotas and rate limits are availability controls; only the MAC
key, registered with the in-enclave portal, carries integrity.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import UnknownTenant
from repro.obs import NULL_REGISTRY
from repro.service.config import TenantQuota


@dataclass(frozen=True)
class TenantCredentials:
    """What a tenant receives at registration (both secrets)."""

    tenant_id: str
    api_key: str
    mac_key: bytes


class TokenBucket:
    """Classic token bucket; ``clock`` is injectable for determinism.

    Starts full. ``try_acquire`` is non-blocking: the service surfaces
    backpressure as a typed rejection, never a hidden sleep.
    """

    def __init__(
        self,
        rate_per_second: float | None,
        burst: int,
        clock=time.monotonic,
    ):
        self.rate = rate_per_second
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        if self.rate is None:
            return True
        with self._lock:
            now = self._clock()
            self._tokens = min(
                float(self.burst), self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class TenantSession:
    """One tenant's live state inside the service."""

    def __init__(
        self,
        credentials: TenantCredentials,
        quota: TenantQuota,
        clock=time.monotonic,
        registry=NULL_REGISTRY,
    ):
        self.credentials = credentials
        self.quota = quota
        self.bucket = TokenBucket(
            quota.rate_per_second, quota.burst, clock=clock
        )
        self._lock = threading.Lock()
        self.in_flight = 0
        self.admitted = 0
        self.rejected = 0
        labels = {"tenant": credentials.tenant_id}  # this tenant's series, bound once
        self.ctr_queries = registry.counter("service.tenant.queries", labels)

    @property
    def tenant_id(self) -> str:
        return self.credentials.tenant_id

    def try_admit(self) -> bool:
        """Reserve one in-flight slot if the tenant quota allows."""
        with self._lock:
            if self.in_flight >= self.quota.max_in_flight:
                return False
            self.in_flight += 1
            self.admitted += 1
            return True

    def release(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def count_rejection(self) -> None:
        with self._lock:
            self.rejected += 1


class TenantDirectory:
    """Thread-safe lookup of tenant sessions by API key."""

    def __init__(self):
        self._by_api_key: dict[str, TenantSession] = {}
        self._by_id: dict[str, TenantSession] = {}
        self._lock = threading.Lock()

    def register(self, session: TenantSession) -> None:
        with self._lock:
            if session.tenant_id in self._by_id:
                raise ValueError(
                    f"tenant {session.tenant_id!r} already registered"
                )
            if session.credentials.api_key in self._by_api_key:
                raise ValueError("API key collision on registration")
            self._by_id[session.tenant_id] = session
            self._by_api_key[session.credentials.api_key] = session

    def lookup(self, api_key: str) -> TenantSession:
        session = self._by_api_key.get(api_key)
        if session is None:
            raise UnknownTenant("API key maps to no registered tenant")
        return session

    def by_id(self, tenant_id: str) -> TenantSession:
        session = self._by_id.get(tenant_id)
        if session is None:
            raise UnknownTenant(f"no tenant {tenant_id!r}")
        return session

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    def tenant_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._by_id)
