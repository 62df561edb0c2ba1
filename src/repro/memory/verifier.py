"""Non-quiescent verification (Algorithm 2) and the touched-page variant.

The verifier closes *epochs*: it scans pages one at a time — locking only
the page's RSWS partition, so routine reads and writes on other pages
proceed concurrently — reading every live cell into the closing epoch's
ReadSet and re-stamping it into the opening epoch's WriteSet. When the
scan has covered every page, the closing epoch's ``h(RS)`` must equal its
``h(WS)``; any out-of-band tampering, replay, omission or fabrication
since the previous pass breaks the equality and raises
:class:`~repro.errors.VerificationFailure`.

Two strategies are provided (DESIGN.md discusses the trade-off):

* ``mode="full"`` — the paper's Algorithm 2: every registered page is
  scanned each pass; global (per-partition) digest equality closes the
  epoch.
* ``mode="touched"`` — the "avoid scanning unvisited pages" optimization
  (Section 4.3): only pages touched since their last scan are visited,
  and each page is checked against a per-page digest of its open cells
  maintained incrementally inside the enclave. The paper budgets one
  *bit* of enclave state per page and leaves the mechanism unspecified;
  we keep one 16-byte digest per page instead (still far inside the EPC
  budget at database scale).

Both strategies share one pass loop. It runs synchronously
(:meth:`Verifier.run_pass`), a page at a time driven by an
operation-count trigger — the paper's "scan one page every x operations"
knob of Figure 10 — or on a background thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ConfigurationError, VeriDBError, VerificationFailure
from repro.faults import default_fault_plane, sites as fault_sites
from repro.memory.verified import VerifiedMemory
from repro.obs import default_event_sink, default_registry


@dataclass
class VerifierStats:
    passes_completed: int = 0
    pages_scanned: int = 0
    cells_scanned: int = 0
    alarms: int = 0
    pages_skipped_untouched: int = 0


class Verifier:
    """Epoch verifier over a :class:`VerifiedMemory`."""

    def __init__(
        self,
        vmem: VerifiedMemory,
        mode: str = "full",
        registry=None,
        faults=None,
    ):
        if mode not in ("full", "touched"):
            raise ConfigurationError(f"unknown verifier mode {mode!r}")
        if mode == "touched" and not vmem.page_digests_enabled:
            raise ConfigurationError(
                "touched-page verification requires VerifiedMemory(page_digests=True)"
            )
        self.vmem = vmem
        self.mode = mode
        self.faults = faults if faults is not None else default_fault_plane()
        self.stats = VerifierStats()
        self.obs = registry if registry is not None else default_registry()
        self._ctr_passes = self.obs.counter("verifier.passes")
        self._ctr_cells = self.obs.counter("verifier.cells_scanned")
        self._ctr_alarms = self.obs.counter("verifier.alarms")
        self._ctr_bg_crashes = self.obs.counter("verifier.background_crashes")
        self._gauge_bg_alive = self.obs.gauge("verifier.background_alive")
        #: serializes all verification activity: one pass is open at a time
        self._lock = threading.Lock()
        #: the open pass's pages still to scan, next one last (None: no
        #: pass is open)
        self._pending: list[int] | None = None
        self._trigger_count = 0
        self._trigger_interval = 0
        self._trigger_hook = None
        self._bg_thread: threading.Thread | None = None
        self._bg_stop = threading.Event()
        self._bg_error: BaseException | None = None
        #: called after every *cleanly* completed pass (full or stepped);
        #: the durable database hangs its WAL checkpoint here, so an
        #: epoch close is what seals the log's progress
        self.on_pass_complete = None

    # ------------------------------------------------------------------
    # the pass loop
    # ------------------------------------------------------------------
    def run_pass(self) -> None:
        """Scan and close one full epoch; raises on detected inconsistency.

        A pass the op-count trigger left open is finished and closed
        first — scanning a page twice within one pass would corrupt both
        epoch generations — and then one fresh pass is opened and
        closed, both by the loop :meth:`step` runs.
        """
        with self._lock:
            try:
                if self._pending is not None:
                    self._advance(one_page=False)
                self._open_pass()
                self._advance(one_page=False)
            except BaseException as scan_error:
                if self._pending is not None:
                    # A scan aborted mid-pass must still close the epoch
                    # (or the memory stays wedged in-pass), but the
                    # half-restamped generations inevitably fail the
                    # digest check — that alarm is a consequence of the
                    # abort, not evidence of tampering, and must not mask
                    # the original error.
                    self._pending = None
                    try:
                        self._close_epoch()
                    except VerificationFailure as close_error:
                        scan_error.__context__ = close_error
                raise

    def step(self) -> bool:
        """Scan the next page of the open pass, opening one if none is;
        close the epoch when no page is left.

        Returns True when this step completed a pass.
        """
        with self._lock:
            if self._pending is None:
                self._open_pass()
            return self._advance(one_page=True)

    def _open_pass(self) -> None:
        vmem = self.vmem
        pages = vmem.registered_pages()
        if self.mode == "touched":
            touched = vmem.touched_pages()
            scanned = [p for p in pages if p in touched]
            self.stats.pages_skipped_untouched += len(pages) - len(scanned)
            pages = scanned
        vmem.begin_pass()
        pages.reverse()  # popped from the end: ascending page order
        self._pending = pages

    def _advance(self, one_page: bool) -> bool:
        """Scan the open pass's pages, passing over any deregistered since
        it opened; with ``one_page``, stop after one scanned page while
        others remain (returns False). Otherwise close the epoch and
        return True."""
        pending = self._pending
        while pending:
            if self._scan_page(pending.pop()) and one_page and pending:
                return False
        self._pending = None
        self._close_epoch()
        if self.on_pass_complete is not None:
            self.on_pass_complete()
        return True

    # ------------------------------------------------------------------
    # the op-count trigger (Figure 10)
    # ------------------------------------------------------------------
    def install_trigger(self, ops_per_step: int) -> None:
        """Scan one page after every ``ops_per_step`` verified operations.

        This is the Figure 10 knob: smaller values verify more eagerly and
        interfere more with routine operations.
        """
        if ops_per_step < 1:
            raise ConfigurationError("ops_per_step must be >= 1")
        self.remove_trigger()
        self._trigger_interval = ops_per_step
        self._trigger_count = 0

        def hook() -> None:
            # a step re-stamps and moves nothing: it fires no op hook, so
            # it never re-enters here
            self._trigger_count += 1
            if self._trigger_count >= self._trigger_interval:
                self._trigger_count = 0
                self.step()

        self._trigger_hook = hook
        self.vmem.add_op_hook(hook)

    def remove_trigger(self) -> None:
        if self._trigger_hook is not None:
            self.vmem.remove_op_hook(self._trigger_hook)
            self._trigger_hook = None

    # ------------------------------------------------------------------
    # background thread
    # ------------------------------------------------------------------
    def start_background(self, pause_seconds: float = 0.0) -> None:
        """Run passes continuously on a daemon thread until stopped.

        *Any* exception — a verification alarm, but equally a crash
        inside the pass — stops the loop, is recorded, and re-raises from
        :meth:`stop_background`; verification never dies silently. Thread
        liveness is exported as the ``verifier.background_alive`` gauge
        and :meth:`background_alive`.
        """
        if self._bg_thread is not None:
            raise ConfigurationError("background verifier already running")
        self._bg_stop.clear()
        self._bg_error = None

        def loop() -> None:
            self._gauge_bg_alive.set(1)
            try:
                while not self._bg_stop.is_set():
                    try:
                        self.run_pass()
                    except BaseException as exc:
                        self._bg_error = exc
                        if not isinstance(exc, VerificationFailure):
                            self._ctr_bg_crashes.inc()
                        return
                    if pause_seconds:
                        self._bg_stop.wait(pause_seconds)
            finally:
                self._gauge_bg_alive.set(0)

        self._bg_thread = threading.Thread(
            target=loop, name="veridb-verifier", daemon=True
        )
        self._bg_thread.start()

    def background_alive(self) -> bool:
        """Whether the background verification loop is still running."""
        return self._bg_thread is not None and self._bg_thread.is_alive()

    def background_error(self) -> BaseException | None:
        """The error that stopped the background loop, if any (not cleared)."""
        return self._bg_error

    def background_degraded(self) -> bool:
        """True when background verification was started but is not running.

        The portal consults this to flag responses produced while no
        verifier is watching (graceful degradation): a loop that died —
        crash or alarm — leaves either a recorded error or a dead thread.
        A verifier that was never started in background mode is *not*
        degraded; synchronous/triggered deployments manage their own
        cadence.
        """
        if self._bg_error is not None:
            return True
        return self._bg_thread is not None and not self._bg_thread.is_alive()

    def stop_background(self, timeout: float | None = 10.0) -> None:
        """Stop the background thread, re-raising any error it recorded.

        Every exception the loop died on — alarm or crash — propagates
        here. ``timeout`` bounds the join so a wedged pass cannot hang
        shutdown; a thread that fails to stop in time raises.
        """
        if self._bg_thread is None:
            return
        self._bg_stop.set()
        self._bg_thread.join(timeout)
        if self._bg_thread.is_alive():
            raise VeriDBError(
                f"background verifier did not stop within {timeout}s"
            )
        self._bg_thread = None
        if self._bg_error is not None:
            error, self._bg_error = self._bg_error, None
            raise error

    # ------------------------------------------------------------------
    # scanning internals
    # ------------------------------------------------------------------
    def _scan_page(self, page_id: int) -> bool:
        """Scan one page under its partition lock.

        False, with nothing scanned, for a page deregistered since the
        pass opened: deregistration happens under the same lock.
        """
        vmem = self.vmem
        partition = vmem.rsws.partition_for_page(page_id)
        partition.acquire()
        try:
            if not vmem.is_registered(page_id):
                return False
            if self.mode == "touched":
                cells = self._check_page_digest(page_id, partition)
            else:
                # Algorithm 2 body: every cell read out of the closing
                # epoch and re-stamped into the next
                vmem.flip_parity(page_id)
                listed = vmem.memory.page_addresses(page_id)
                cells = len(vmem.restamp(listed, scan=True))
            self.stats.cells_scanned += cells
            self.stats.pages_scanned += 1
            self._ctr_cells.inc(cells)
            return True
        finally:
            partition.release()

    def _check_page_digest(self, page_id: int, partition) -> int:
        """Compare the page's cells against its trusted open-cell digest."""
        vmem = self.vmem
        observed = 0
        cells = 0
        for addr in vmem.memory.page_addresses(page_id):
            cell = vmem._try_read_retried(addr)
            if cell is None or not cell.checked:
                continue
            digest = vmem.prf.cell(addr, cell.data, cell.timestamp)
            observed ^= int.from_bytes(digest, "little")
            cells += 1
        if observed != vmem.page_digest(page_id):
            self.stats.alarms += 1
            self._ctr_alarms.inc()
            if vmem.cache is not None:
                # a detected inconsistency voids every trusted copy
                vmem.cache.flush()
            raise VerificationFailure(
                f"page {page_id} content does not match its trusted digest",
                partition=partition.index,
            )
        vmem.clear_touched([page_id])
        return cells

    def _close_epoch(self) -> None:
        vmem = self.vmem
        # Injection site: the verifier process dies with the scan done but
        # the epoch not yet advanced. Nothing is lost — the next pass
        # re-covers everything — but a background loop goes degraded.
        self.faults.check(fault_sites.VERIFIER_CRASH_BEFORE_END_PASS)
        # touched mode checked each page against its digest as it went
        bad = [] if self.mode == "touched" else self._close_partitions()
        vmem.end_pass()
        self.stats.passes_completed += 1
        self._ctr_passes.inc()
        if vmem.cache is not None:
            # epoch boundary (clean or alarming): cached copies were
            # verified under the generation that just closed, so they go
            # with it, before any alarm below raises
            vmem.cache.flush()
        self._emit_epoch_event(alarm_partitions=bad)
        if bad:
            self.stats.alarms += 1
            self._ctr_alarms.inc()
            raise VerificationFailure(
                "write-read consistency violated: h(RS) != h(WS) "
                f"in partition(s) {bad}",
                partition=bad[0],
            )
        # Injection site: crash after a *clean* epoch close — fires only
        # when no alarm is pending, so an injected crash can never mask
        # a real detection.
        self.faults.check(fault_sites.VERIFIER_CRASH_AFTER_END_PASS)

    def _close_partitions(self) -> list[int]:
        """Algorithm 2's closing check: the partitions whose closing
        generation has h(RS) != h(WS). Every closing generation is reset."""
        old_parity = self.vmem.epoch & 1
        bad: list[int] = []
        for partition in self.vmem.rsws.partitions:
            partition.acquire()
            try:
                if not partition.consistent(old_parity):
                    bad.append(partition.index)
                partition.reset_generation(old_parity)
            finally:
                partition.release()
        return bad

    def _emit_epoch_event(self, alarm_partitions: list[int]) -> None:
        """Structured-event marker for one closed verification epoch."""
        sink = default_event_sink()
        if not sink.enabled:
            return
        sink.emit(
            {
                "type": "epoch_close",
                "epoch": self.vmem.epoch,
                "mode": self.mode,
                "pass_number": self.stats.passes_completed,
                "alarm": bool(alarm_partitions),
                "partitions": list(alarm_partitions),
            }
        )
