"""Post-alarm forensics: localize what the adversary touched.

Detection (Section 3.2) promises the client *evidence* of misbehaviour.
The epoch check itself pins the inconsistency to an RSWS partition; this
module digs further after an alarm:

* **decodability sweep** — tampered bytes usually break the canonical
  record encoding; every cell that fails to decode is a named suspect;
* **chain-consistency sweep** — records are cross-checked against each
  other: every ``nKey`` must point to an existing key (or ``⊤``), every
  key must be pointed to exactly once, and each chain must be reachable
  from its ``⊥`` sentinel. Key/nKey manipulation shows up here even
  when the bytes still decode;
* anything that decodes fine and keeps the chains consistent (a pure
  payload swap with a well-formed forgery) stays localized only to its
  partition — which is still the cryptographic evidence: ``h(RS) ≠
  h(WS)`` over that partition's operation history.

Forensic reads use the *raw* memory interface: after an alarm the
digests are already condemned and the investigation must not disturb
the remaining state.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.catalog.types import BOTTOM, TOP
from repro.errors import VerificationFailure
from repro.memory.cells import make_addr
from repro.obs import default_event_sink, default_registry


@dataclass
class Incident:
    """One operational incident: something went wrong and is on record.

    Distinct from :class:`IncidentReport` (post-alarm forensics): an
    incident is the operational fact — verifier down, alarm raised —
    that degradation handling and operators act on.
    """

    key: str
    message: str
    opened_at: float
    resolved: bool = False
    resolved_at: float | None = None


class IncidentLog:
    """Thread-safe register of operational incidents.

    The portal opens an incident when it serves a response with the
    background verifier down (graceful degradation), and the database
    opens one when an explicit verification pass raises an alarm.
    ``open_once`` deduplicates by key so a degraded verifier produces a
    single incident no matter how many queries run through the outage.
    """

    def __init__(self, registry=None):
        self._lock = threading.Lock()
        self._incidents: list[Incident] = []
        self.obs = registry if registry is not None else default_registry()
        self.obs.gauge_fn("incidents.active", lambda: len(self.active()))

    def open(self, key: str, message: str) -> Incident:
        """Open a new incident unconditionally."""
        incident = Incident(key=key, message=message, opened_at=time.time())
        with self._lock:
            self._incidents.append(incident)
        sink = default_event_sink()
        if sink.enabled:
            sink.emit(
                {"type": "incident_open", "key": key, "message": message}
            )
        return incident

    def open_once(self, key: str, message: str) -> Incident:
        """Open an incident unless one with ``key`` is already active."""
        with self._lock:
            for incident in reversed(self._incidents):
                if incident.key == key and not incident.resolved:
                    return incident
        return self.open(key, message)

    def resolve(self, key: str) -> bool:
        """Resolve all active incidents with ``key``; True if any were."""
        resolved_any = False
        with self._lock:
            for incident in self._incidents:
                if incident.key == key and not incident.resolved:
                    incident.resolved = True
                    incident.resolved_at = time.time()
                    resolved_any = True
        if resolved_any:
            sink = default_event_sink()
            if sink.enabled:
                sink.emit({"type": "incident_resolve", "key": key})
        return resolved_any

    def active(self, key: str | None = None) -> list[Incident]:
        with self._lock:
            return [
                i
                for i in self._incidents
                if not i.resolved and (key is None or i.key == key)
            ]

    def all(self) -> list[Incident]:
        with self._lock:
            return list(self._incidents)


@dataclass
class Anomaly:
    """One localized finding."""

    kind: str  # "undecodable" | "broken-link" | "orphan" | "unreachable"
    table: str
    page_id: Optional[int]
    detail: str


@dataclass
class IncidentReport:
    """Everything the client can hand over as evidence."""

    partition: Optional[int]
    message: str
    anomalies: list[Anomaly] = field(default_factory=list)

    @property
    def localized(self) -> bool:
        return bool(self.anomalies)

    def summary(self) -> str:
        lines = [f"verification alarm: {self.message}"]
        if self.partition is not None:
            lines.append(f"inconsistent RSWS partition: {self.partition}")
        if not self.anomalies:
            lines.append(
                "no structural anomaly found: the tampered value is "
                "well-formed; evidence remains the partition digest "
                "mismatch over its operation history"
            )
        for anomaly in self.anomalies:
            location = (
                f"page {anomaly.page_id}" if anomaly.page_id is not None else "?"
            )
            lines.append(
                f"[{anomaly.kind}] table {anomaly.table!r}, {location}: "
                f"{anomaly.detail}"
            )
        return "\n".join(lines)


def audit_table(table) -> list[Anomaly]:
    """Structural sweep of one table's stored records (raw reads)."""
    anomalies: list[Anomaly] = []
    layout = table.layout
    memory = table.engine.memory
    records: list[tuple[int, object]] = []  # (page_id, StoredRecord)
    for page in table.heap.pages():
        page_id = page.page_id
        for slot in page.live_slots():
            offset, _length = page.slot_offset_for_compaction(slot)
            cell = memory.try_read(make_addr(page_id, offset))
            if cell is None:
                anomalies.append(
                    Anomaly(
                        "undecodable",
                        table.name,
                        page_id,
                        f"slot {slot}: cell vanished from untrusted memory",
                    )
                )
                continue
            try:
                stored = layout.from_tuple(table.codec.decode(cell.data))
            except Exception as exc:
                anomalies.append(
                    Anomaly(
                        "undecodable",
                        table.name,
                        page_id,
                        f"slot {slot}: record bytes do not decode ({exc})",
                    )
                )
                continue
            records.append((page_id, stored))

    # chain cross-checks, one chain at a time
    for chain_id in range(layout.n_chains):
        keyed = {}
        for page_id, stored in records:
            key = stored.chain_keys[chain_id]
            if key is not None:
                keyed[key] = (page_id, stored)
        if BOTTOM not in keyed:
            anomalies.append(
                Anomaly(
                    "unreachable",
                    table.name,
                    None,
                    f"chain {chain_id}: the ⊥ sentinel record is missing",
                )
            )
            continue
        # follow the chain from ⊥; every key must be visited exactly once
        visited = set()
        cursor = BOTTOM
        while cursor is not TOP:
            page_id, stored = keyed[cursor]
            visited.add(cursor)
            nxt = stored.chain_nexts[chain_id]
            if nxt is not TOP and nxt not in keyed:
                anomalies.append(
                    Anomaly(
                        "broken-link",
                        table.name,
                        page_id,
                        f"chain {chain_id}: key {cursor!r} points to "
                        f"{nxt!r}, which does not exist",
                    )
                )
                break
            if nxt is not TOP and nxt in visited:
                anomalies.append(
                    Anomaly(
                        "broken-link",
                        table.name,
                        page_id,
                        f"chain {chain_id}: cycle at key {nxt!r}",
                    )
                )
                break
            cursor = nxt
        orphans = set(keyed) - visited
        for key in sorted(orphans, key=repr):
            page_id, _ = keyed[key]
            anomalies.append(
                Anomaly(
                    "orphan",
                    table.name,
                    page_id,
                    f"chain {chain_id}: key {key!r} is not reachable from ⊥",
                )
            )
    return anomalies


def investigate(db, error: VerificationFailure | None = None) -> IncidentReport:
    """Full-database forensic sweep after an alarm."""
    report = IncidentReport(
        partition=getattr(error, "partition", None),
        message=str(error) if error is not None else "manual audit",
    )
    for name in db.catalog.table_names():
        table = db.catalog.lookup(name).store
        report.anomalies.extend(audit_table(table))
    return report
