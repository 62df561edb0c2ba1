"""Multi-tenant concurrent query service over the VeriDB portal.

The serving layer ROADMAP item 1 asks for: per-tenant API-key sessions
with enclave-registered MAC keys, admission control, quotas and rate
limits with typed backpressure, dispatch on the caller's thread with a
bounded worker pool behind it, graceful drain, and an open-loop load
generator with a saturation-knee finder. See
:mod:`repro.service.service` for the trust-model discussion.
"""

from repro.service.config import ServiceConfig, TenantQuota
from repro.service.loadgen import (
    KneeReport,
    LoadGenerator,
    LoadReport,
    print_sweep_table,
)
from repro.service.service import QueryService, serve
from repro.service.tenants import (
    TenantCredentials,
    TenantDirectory,
    TenantSession,
    TokenBucket,
)

__all__ = [
    "KneeReport",
    "LoadGenerator",
    "LoadReport",
    "QueryService",
    "ServiceConfig",
    "TenantCredentials",
    "TenantDirectory",
    "TenantQuota",
    "TenantSession",
    "TokenBucket",
    "print_sweep_table",
    "serve",
]
