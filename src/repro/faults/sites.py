"""The catalog of named fault-injection sites.

Site names are dotted, and the segment before the first dot is the layer
that hosts the site (mirroring the metric-name convention of
:mod:`repro.obs`). Each constant below marks one place in the codebase
where a hostile or unlucky host can make an operation fail; the
corresponding ``check``/``mangle``/``drop_one`` call is threaded through
that layer's source.

Semantics per site (how a firing manifests and how it is handled):

========================================  =====================================
site                                      behaviour when fired
========================================  =====================================
``sgx.ecall_abort``                       the ECall entry aborts before
                                          dispatch (:class:`TransientFault`);
                                          the client retries the same
                                          authenticated query — its qid was
                                          never burned.
``sgx.epc_swap_error``                    an encrypted EPC page swap fails
                                          (:class:`TransientFault`) before any
                                          accounting is mutated.
``sgx.seal_corruption``                   the sealed blob is corrupted on the
                                          way to untrusted storage; unsealing
                                          later fails authentication.
``memory.torn_write``                     a host-memory store tears: the cell
                                          holds mangled bytes. Detected by the
                                          next verification pass (the digests
                                          cover the *intended* bytes).
``memory.transient_read_error``           a host-memory load fails
                                          (:class:`TransientFault`) before
                                          anything is mutated; retried
                                          transparently by the verified layer.
``memory.directory_drop``                 the untrusted page directory omits a
                                          live cell; the unmatched WriteSet
                                          entry alarms at epoch close.
``verifier.crash_before_end_pass``        the verifier dies after scanning but
                                          before the epoch advances.
``verifier.crash_after_end_pass``         the verifier dies right after the
                                          epoch advances (pass is complete).
``storage.splice_interruption``           a chain splice (insert/delete) is
                                          interrupted *before* the first
                                          mutation; a retry of the statement
                                          is safe.
``cache.evict_storm``                     EPC pressure forces the whole
                                          trusted record cache out of
                                          protected memory; the cache flushes
                                          and every subsequent read re-runs
                                          the full Algorithm-1 protocol.
                                          Never surfaces to callers —
                                          correctness is unaffected, only
                                          latency.
``service.dispatch_abort``                the service front-end fails before
                                          handing the query to the enclave
                                          (:class:`TransientFault`); the qid
                                          is unburned, so the client retries
                                          the same authenticated query.
``service.response_lost``                 the transport drops an endorsed
                                          response *after* the portal
                                          recorded the qid
                                          (:class:`TransientFault` on the
                                          return path). A same-qid retry is
                                          rejected as a replay; the client
                                          surfaces a typed
                                          :class:`~repro.errors.ResponseLost`
                                          and resubmits under a fresh qid.
``wal.append_torn``                       the host crashes mid-way through a
                                          group-commit sync: only a prefix of
                                          the batch's bytes reaches the log
                                          file and the sealed anchor is *not*
                                          advanced (:class:`TransientFault`).
                                          Recovery discards the torn tail —
                                          none of the torn records were ever
                                          acknowledged as durable.
``wal.fsync_lost``                        the host silently drops the batch's
                                          bytes while *acknowledging* the
                                          sync: the sealed anchor advances but
                                          the log file does not. No error
                                          surfaces at commit time; recovery
                                          detects the anchor pointing past the
                                          end of the log and refuses with
                                          :class:`~repro.errors.RecoveryIntegrityError`.
``wal.replay_abort``                      log replay aborts mid-way through
                                          rebuilding state
                                          (:class:`TransientFault`). Nothing
                                          durable was mutated — the log is
                                          read-only during replay — so a
                                          fresh recovery attempt is safe and
                                          succeeds.
========================================  =====================================
"""

from __future__ import annotations

ECALL_ABORT = "sgx.ecall_abort"
EPC_SWAP_ERROR = "sgx.epc_swap_error"
SEAL_CORRUPTION = "sgx.seal_corruption"

TORN_WRITE = "memory.torn_write"
TRANSIENT_READ_ERROR = "memory.transient_read_error"
DIRECTORY_DROP = "memory.directory_drop"

VERIFIER_CRASH_BEFORE_END_PASS = "verifier.crash_before_end_pass"
VERIFIER_CRASH_AFTER_END_PASS = "verifier.crash_after_end_pass"

SPLICE_INTERRUPTION = "storage.splice_interruption"

CACHE_EVICT_STORM = "cache.evict_storm"

SERVICE_DISPATCH_ABORT = "service.dispatch_abort"
SERVICE_RESPONSE_LOST = "service.response_lost"

WAL_APPEND_TORN = "wal.append_torn"
WAL_FSYNC_LOST = "wal.fsync_lost"
WAL_REPLAY_ABORT = "wal.replay_abort"

#: every registered site, for schedules that want blanket coverage
ALL_SITES = (
    ECALL_ABORT,
    EPC_SWAP_ERROR,
    SEAL_CORRUPTION,
    TORN_WRITE,
    TRANSIENT_READ_ERROR,
    DIRECTORY_DROP,
    VERIFIER_CRASH_BEFORE_END_PASS,
    VERIFIER_CRASH_AFTER_END_PASS,
    SPLICE_INTERRUPTION,
    CACHE_EVICT_STORM,
    SERVICE_DISPATCH_ABORT,
    SERVICE_RESPONSE_LOST,
    WAL_APPEND_TORN,
    WAL_FSYNC_LOST,
    WAL_REPLAY_ABORT,
)

#: sites that are safe to fire during write statements: they either fire
#: before any state is mutated (clean abort, retryable) or are recovered
#: without surfacing (an evict storm only costs re-verified reads)
SAFE_ABORT_SITES = (
    ECALL_ABORT,
    EPC_SWAP_ERROR,
    SPLICE_INTERRUPTION,
    CACHE_EVICT_STORM,
    SERVICE_DISPATCH_ABORT,
)

#: sites that model active host corruption; firing one means the *next*
#: verification pass (or proof check) must raise an alarm
CORRUPTION_SITES = (TORN_WRITE, DIRECTORY_DROP, SEAL_CORRUPTION)
