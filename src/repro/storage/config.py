"""Storage-layer configuration knobs.

These map one-to-one onto the paper's evaluated configurations:

* ``verify_metadata`` — Figure 9's "RSWS incl. metadata" (True) vs
  "RSWS" (False, the Section 4.3 metadata-exclusion optimization).
* ``verification`` — False gives Figure 9's "Baseline" (no RS/WS
  maintenance at all).
* ``rsws_partitions`` — the RSWS count swept in Figure 13.
* ``verifier_mode`` — "full" (Algorithm 2) or "touched" (the
  touched-page-tracking optimization).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: the engine's chunk length: chain records per batched verified read,
#: so rows per scan batch, and rows per batch a sort or an aggregate
#: emits. Read at call time (``config.BATCH_ROWS``, never a copied
#: name), so a test can patch this one name to 1 or 7 to put chunk
#: boundaries everywhere. 256 sits on the plateau of the batch-size
#: sweep (EXPERIMENTS).
BATCH_ROWS = 256

#: default capacity of the engine's plan cache (distinct statement
#: shapes retained); see ``StorageConfig.plan_cache_size``
DEFAULT_PLAN_CACHE_SIZE = 128


@dataclass
class StorageConfig:
    page_size: int = 8192
    verify_metadata: bool = False
    verification: bool = True
    rsws_partitions: int = 16
    verifier_mode: str = "full"
    #: when set, operators spill intermediate state beyond this many
    #: rows into temporary verifiable tables instead of holding it in
    #: enclave memory (the Section 5.4 future-work direction); None
    #: keeps all intermediate state in the enclave
    spill_threshold_rows: int | None = None
    #: statement shapes kept in the engine's bounded LRU plan cache
    #: (normalized SQL + join hint → parsed statement and, for cacheable
    #: statements, a physical plan template validated against the
    #: catalog's schema version). 0 disables plan caching entirely.
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    #: bytes of trusted in-enclave record cache
    #: (:class:`~repro.memory.cache.RecordCache`); 0 disables caching.
    #: Residency is accounted against the EPC, so budgets beyond the
    #: enclave's protected memory thrash instead of helping — see
    #: ``benchmarks/test_gates.py``
    cache_bytes: int = 0

    def __post_init__(self):
        if self.page_size < 512:
            raise ConfigurationError("page_size must be at least 512 bytes")
        if self.verifier_mode not in ("full", "touched"):
            raise ConfigurationError(f"unknown verifier mode {self.verifier_mode!r}")
        if self.rsws_partitions < 1:
            raise ConfigurationError("rsws_partitions must be >= 1")
        if self.spill_threshold_rows is not None and self.spill_threshold_rows < 1:
            raise ConfigurationError("spill_threshold_rows must be >= 1")
        if self.plan_cache_size < 0:
            raise ConfigurationError("plan_cache_size must be >= 0")
        if self.cache_bytes < 0:
            raise ConfigurationError("cache_bytes must be >= 0")
