"""The storage engine: shared verified memory, verifier and page ids.

One :class:`StorageEngine` per database instance. It wires together the
untrusted memory, the PRF (keyed from the enclave's key chain), the
partitioned RSWS state and the epoch verifier, and hands out globally
unique page ids to tables.
"""

from __future__ import annotations

import itertools

from repro.crypto.keys import KeyChain
from repro.crypto.prf import PRF
from repro.memory.cache import RecordCache
from repro.memory.rsws import RSWSGroup
from repro.memory.untrusted import UntrustedMemory
from repro.memory.verified import VerifiedMemory
from repro.memory.verifier import Verifier
from repro.obs import default_registry
from repro.storage.config import StorageConfig


class StorageEngine:
    """Owns the verified-memory stack beneath every table."""

    def __init__(
        self,
        config: StorageConfig | None = None,
        keychain: KeyChain | None = None,
        registry=None,
    ):
        self.config = config or StorageConfig()
        self.keychain = keychain or KeyChain()
        self.obs = registry if registry is not None else default_registry()
        self.memory = UntrustedMemory()
        self.vmem = VerifiedMemory(
            memory=self.memory,
            prf=PRF(self.keychain.prf_key),
            rsws=RSWSGroup(n_partitions=self.config.rsws_partitions),
            page_digests=(self.config.verifier_mode == "touched"),
            registry=self.obs,
        )
        self.verifier = (
            Verifier(self.vmem, mode=self.config.verifier_mode, registry=self.obs)
            if self.config.verification
            else None
        )
        # the trusted record cache: hits skip the Algorithm-1 protocol
        # entirely (repro.memory.cache); only meaningful when the
        # verified read path is active
        self.cache = (
            RecordCache(self.config.cache_bytes, registry=self.obs)
            if self.config.cache_bytes > 0 and self.config.verification
            else None
        )
        self.vmem.cache = self.cache
        self._page_ids = itertools.count(0)

    def attach_epc(self, epc) -> None:
        """Account record-cache residency against an enclave page cache.

        The cache mirrors its resident bytes as EPC shard allocations,
        so it competes with operator state for protected memory and an
        over-budget cache pays eviction storms (the EPC-pressure cliff).
        """
        if self.cache is not None:
            self.cache.attach_epc(epc)

    @property
    def verification_enabled(self) -> bool:
        return self.config.verification

    def new_page_id(self) -> int:
        return next(self._page_ids)

    def verify_now(self) -> None:
        """Run one synchronous verification pass (no-op when disabled)."""
        if self.verifier is not None:
            self.verifier.run_pass()

    def enable_continuous_verification(self, ops_per_page_scan: int) -> None:
        """Scan one page per ``ops_per_page_scan`` operations (Figure 10)."""
        if self.verifier is not None:
            self.verifier.install_trigger(ops_per_page_scan)

    def disable_continuous_verification(self) -> None:
        if self.verifier is not None:
            self.verifier.remove_trigger()
