"""Top-level configuration for a VeriDB instance."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.storage.config import StorageConfig


@dataclass
class VeriDBConfig:
    """Knobs for the whole system.

    ``storage`` carries the paper's evaluated storage configurations
    (see :class:`~repro.storage.config.StorageConfig`).
    ``ops_per_page_scan`` enables continuous non-quiescent verification
    — the Figure 10 knob — scanning one page per N operations; None
    leaves verification to explicit :meth:`VeriDB.verify_now` calls or a
    background thread started by the caller.
    ``trace_sample_rate`` is the fraction of portal queries executed
    under a per-query :class:`~repro.obs.trace_context.TraceContext`
    (0.0 = never, the zero-cost default; 1.0 = every query). Sampling
    is deterministic in the query sequence number, so a rate of 0.25
    traces exactly every fourth query. ``VeriDB.explain_analyze``
    always traces, regardless of this rate.
    ``wal_dir`` enables the enclave-sealed write-ahead log
    (:mod:`repro.wal`): every committed DDL/DML statement is appended
    to a MAC-chained log under that directory and crash recovery
    (:func:`repro.core.recovery.recover_from_wal`) can rebuild a
    proven-consistent instance from it. None (the default) keeps the
    seed's purely in-memory behaviour. ``wal_group_commit`` is the
    group-commit batch size: appends buffer in memory and one
    sync (fsync-equivalent) covers up to that many records; 1 syncs
    every record. ``wal_fsync`` asks for a real ``os.fsync`` per sync
    instead of a flush-only durability boundary (slow; off by default
    so tests and benchmarks model the batching without paying disk).
    """

    storage: StorageConfig = field(default_factory=StorageConfig)
    ops_per_page_scan: int | None = None
    key_seed: int | None = None  # deterministic keys for tests/benchmarks
    trace_sample_rate: float = 0.0
    wal_dir: str | None = None
    wal_group_commit: int = 64
    wal_fsync: bool = False

    def __post_init__(self):
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigurationError(
                "trace_sample_rate must be within [0.0, 1.0]"
            )
        if self.wal_group_commit < 1:
            raise ConfigurationError("wal_group_commit must be >= 1")

    @classmethod
    def baseline(cls) -> "VeriDBConfig":
        """Figure 9's Baseline: no verifiability machinery at all."""
        return cls(storage=StorageConfig(verification=False))

    @classmethod
    def rsws(cls, verify_metadata: bool = False, **kwargs) -> "VeriDBConfig":
        """Figure 9's RSWS configurations."""
        return cls(
            storage=StorageConfig(verify_metadata=verify_metadata, **kwargs)
        )


#: transports a sharded fleet can run its coordinator↔worker link over
SHARD_TRANSPORTS = ("inproc", "process")


@dataclass
class ShardConfig:
    """Knobs for a multi-enclave sharded fleet (:mod:`repro.shard`).

    ``shard_count`` is the number of enclave worker instances; each one
    is a full :class:`~repro.core.database.VeriDB` built from ``base``
    (with a per-shard derived ``key_seed`` when the base seed is set, so
    every worker enclave owns distinct keys).

    ``shard_keys`` maps table name → partitioning column; tables not
    listed shard on their primary key. ``shard_ranges`` opts a table
    into *range* partitioning: its value is the sorted tuple of
    ``shard_count - 1`` upper boundaries (shard *i* owns values ``<``
    boundary *i*; the last shard owns the tail). Tables without an
    entry use stable hash partitioning, which balances load but can
    prune only equality predicates — range predicates on a
    range-partitioned shard key prune too.

    ``transport`` is ``"inproc"`` (workers are in-process objects behind
    the same MAC'd envelope protocol — the test/CI default, with tamper
    hooks) or ``"process"`` (one ``multiprocessing`` process per worker,
    the configuration that actually escapes the GIL).
    ``request_timeout`` bounds each worker round trip; a worker that
    stays silent past it raises
    :class:`~repro.errors.ShardReplyLost`.

    Fleet observability (:mod:`repro.obs.fleet`): ``worker_metrics``
    gives every worker its own real
    :class:`~repro.obs.metrics.MetricsRegistry` (the federation source;
    off restores the zero-cost null registry inside workers).
    ``federate_metrics`` folds worker registry deltas into the
    coordinator registry under ``shard`` labels on every health poll.
    ``health_interval`` > 0 starts the background
    :class:`~repro.obs.fleet.HealthMonitor` poller on that cadence
    (seconds); 0 leaves health checks to explicit
    ``ShardedDatabase.health()`` calls.
    """

    shard_count: int = 2
    shard_keys: dict = field(default_factory=dict)
    shard_ranges: dict = field(default_factory=dict)
    transport: str = "inproc"
    request_timeout: float = 30.0
    worker_metrics: bool = True
    federate_metrics: bool = True
    health_interval: float = 0.0
    base: VeriDBConfig = field(default_factory=VeriDBConfig)

    def __post_init__(self):
        if self.shard_count < 1:
            raise ConfigurationError("shard_count must be >= 1")
        if self.transport not in SHARD_TRANSPORTS:
            raise ConfigurationError(
                f"unknown shard transport {self.transport!r}; "
                f"use one of {SHARD_TRANSPORTS}"
            )
        if self.request_timeout <= 0:
            raise ConfigurationError("request_timeout must be positive")
        if self.health_interval < 0:
            raise ConfigurationError("health_interval must be >= 0")
        for table, boundaries in self.shard_ranges.items():
            if len(boundaries) != self.shard_count - 1:
                raise ConfigurationError(
                    f"shard_ranges[{table!r}] needs exactly "
                    f"shard_count - 1 = {self.shard_count - 1} boundaries, "
                    f"got {len(boundaries)}"
                )
            if list(boundaries) != sorted(boundaries):
                raise ConfigurationError(
                    f"shard_ranges[{table!r}] boundaries must be sorted"
                )

    def shard_key_for(self, table_name: str, schema) -> str:
        """The partitioning column of ``table_name`` (default: its pk)."""
        column = self.shard_keys.get(table_name.lower())
        if column is None:
            column = self.shard_keys.get(table_name)
        if column is None:
            return schema.primary_key
        if not schema.has_column(column):
            raise ConfigurationError(
                f"shard key {column!r} is not a column of {table_name!r}"
            )
        return column
