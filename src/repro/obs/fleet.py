"""Fleet observability: trace segments, metrics federation, health/SLO.

PR 9 scaled VeriDB out to N enclave workers but left the observability
stack (PRs 1/5) coordinator-local: a worker's metrics, spans and
per-operator attribution were invisible under the ``process`` transport.
This module is the shared vocabulary that makes the fleet observable
end to end; the shard layer wires it in:

* **Trace segments** — a worker executing a pushed-down fragment under
  its own :class:`~repro.obs.trace_context.TraceContext` serializes the
  per-operator frames with :func:`serialize_trace_segment`; the
  coordinator stitches the segment into its ``explain_analyze`` tree
  (one subtree per shard), so per-worker verified-read/cache/ECall/
  cycle attribution survives the MAC'd envelope crossing. Segments are
  plain dicts of primitives — they ride inside the pickled, MAC-covered
  reply payload with no envelope format change.
* **Metrics federation** — a worker answers the ``metrics_snapshot``
  op with :func:`snapshot_delta` (counters as increments since the last
  poll, gauges as current values, sparse log2 histograms as per-bucket
  increments); the coordinator folds each delta into its own registry
  with :func:`fold_metric_delta` under a ``shard`` label, so one scrape
  of the coordinator exposes the whole fleet as labeled series.
* **Health/SLO** — :class:`HealthMonitor` heartbeats every worker
  (liveness, fleet round, WAL lag, EPC pressure, cache hit rate),
  tracks a rolling-window p99 / error-budget burn with
  :class:`SloTracker`, and runs threshold alert rules through a
  raise/clear state machine that emits ``health.*`` metrics and
  ``alert_raised`` / ``alert_cleared`` JSONL events.
"""

from __future__ import annotations

import threading
from time import monotonic, perf_counter
from typing import Any, Callable, Optional

from repro.obs.export import default_event_sink
from repro.obs.metrics import (
    Histogram,
    default_registry,
    histogram_delta,
    quantile,
    split_series_key,
)
from repro.obs.trace_context import COUNTED_FIELDS, TraceContext

#: the rolling-window SLO: the window's width, its p99 latency target
#: and the error rate that burns the whole error budget
SLO_WINDOW_SECONDS = 60.0
SLO_P99_SECONDS = 1.0
SLO_ERROR_RATE = 0.01
#: per-worker alert thresholds: WAL records awaiting a durability sync,
#: fleet rounds behind the coordinator, EPC occupancy fraction
WAL_LAG_ALERT = 1024
EPOCH_LAG_ALERT = 1
EPC_PRESSURE_ALERT = 0.9


# ----------------------------------------------------------------------
# trace segments (worker -> coordinator)
# ----------------------------------------------------------------------
def serialize_trace_segment(trace: TraceContext, plan, shard_id: int) -> dict:
    """One worker's attribution for one fragment, as a picklable dict.

    ``plan`` is the same node form ``explain_analyze`` renders in-process;
    the unclaimed remainder — parsing, planning, materialization — is
    the root frame, so the segment's frames sum to its elapsed wall
    clock.
    """
    return {
        "shard": shard_id,
        "qid": trace.qid,
        "elapsed_seconds": trace.elapsed,
        "root": trace.root.as_dict(),
        "plan": trace.plan_data(plan) if plan is not None else None,
        "totals": trace.totals(),
    }


def sum_segment_totals(segments) -> dict:
    """Fold segment totals into one dict (:data:`COUNTED_FIELDS` + wall)."""
    out = {field: 0 for field in COUNTED_FIELDS}
    out["wall_seconds"] = 0.0
    out["elapsed_seconds"] = 0.0
    for segment in segments:
        totals = segment.get("totals", {})
        for field in COUNTED_FIELDS:
            out[field] += totals.get(field, 0)
        out["wall_seconds"] += totals.get("wall_seconds", 0.0)
        out["elapsed_seconds"] += segment.get("elapsed_seconds", 0.0)
    return out


# ----------------------------------------------------------------------
# metrics federation (worker registry deltas, coordinator fold)
# ----------------------------------------------------------------------
def snapshot_delta(current: dict, baseline: dict) -> dict:
    """Registry-snapshot delta: what changed since ``baseline``.

    Counters become increments (zero increments are dropped), gauges
    report their current value (level, not rate), histograms report
    :func:`~repro.obs.metrics.histogram_delta` (unchanged ones are
    dropped).
    """
    delta: dict = {}
    for key, data in current.items():
        kind = data.get("type")
        base = baseline.get(key)
        if kind == "counter":
            increment = data["value"] - (base["value"] if base else 0)
            if increment:
                entry = {"type": "counter", "value": increment}
                if data.get("labels"):
                    entry["labels"] = dict(data["labels"])
                delta[key] = entry
        elif kind == "gauge":
            entry = {"type": "gauge", "value": data["value"]}
            if data.get("labels"):
                entry["labels"] = dict(data["labels"])
            delta[key] = entry
        elif kind == "histogram":
            entry = histogram_delta(data, base)
            if entry is not None:
                delta[key] = entry
    return delta


def fold_metric_delta(registry, delta: dict, extra_labels: dict) -> int:
    """Fold one worker's :func:`snapshot_delta` into ``registry``.

    Every series gains ``extra_labels`` (the ``shard`` label above all),
    so a two-worker fleet folds ``memory.verified_reads`` into
    ``memory.verified_reads{shard="0"}`` and ``...{shard="1"}`` —
    cardinality grows in series, not names. Returns the series count.
    """
    folded = 0
    for key, data in delta.items():
        base, labels = split_series_key(key)
        labels.update(extra_labels)
        kind = data.get("type")
        if kind == "counter":
            registry.counter(base, labels=labels).inc(data["value"])
        elif kind == "gauge":
            registry.gauge(base, labels=labels).set(data["value"])
        elif kind == "histogram":
            registry.histogram(base, labels=labels).merge_snapshot(data)
        else:
            continue
        folded += 1
    return folded


class FederationState:
    """A worker's between-polls snapshot baseline (worker-side state)."""

    def __init__(self, registry):
        self.registry = registry
        self._baseline: dict = {}
        self._lock = threading.Lock()

    def collect(self) -> dict:
        """The registry delta since the previous :meth:`collect`."""
        with self._lock:
            current = self.registry.snapshot()
            delta = snapshot_delta(current, self._baseline)
            self._baseline = current
            return delta


# ----------------------------------------------------------------------
# rolling-window SLO tracking
# ----------------------------------------------------------------------
class SloTracker:
    """p99 latency and error-budget burn over a rolling window.

    Fed by sampling the coordinator registry's cumulative per-shard
    ``shard.request_seconds`` histograms (and the typed reply-failure
    counters) at each health poll: the tracker keeps timestamped
    cumulative snapshots, drops those older than the window, and the
    windowed delta between the oldest retained sample and now is the
    traffic the SLO judges. No hot-path hook — the request path never
    sees this class.
    """

    def __init__(
        self,
        window_seconds: float,
        p99_target: float,
        error_rate_target: float,
    ):
        self.window_seconds = window_seconds
        self.p99_target = p99_target
        self.error_rate_target = error_rate_target
        #: (timestamp, merged cumulative histogram snapshot, error count)
        self._samples: list[tuple[float, dict, int]] = []
        self._lock = threading.Lock()

    @staticmethod
    def _cumulative(registry_snapshot: dict) -> tuple[dict, int]:
        merged = Histogram("shard.request_seconds")
        errors = 0
        for key, data in registry_snapshot.items():
            base, _labels = split_series_key(key)
            if base == "shard.request_seconds" and data.get("type") == "histogram":
                merged.merge_snapshot(data)
            elif base in (
                "shard.reply_tampered",
                "shard.reply_replayed",
                "shard.reply_lost",
            ):
                errors += data.get("value", 0)
        return merged.snapshot(), errors

    def sample(self, registry_snapshot: dict, now: Optional[float] = None) -> dict:
        """Record one cumulative sample and return the windowed SLO view."""
        now = monotonic() if now is None else now
        cumulative, errors = self._cumulative(registry_snapshot)
        with self._lock:
            self._samples.append((now, cumulative, errors))
            # keep exactly one sample at-or-before the window edge as the
            # delta base, so a sparse poll cadence still spans the window
            edge = now - self.window_seconds
            while len(self._samples) >= 2 and self._samples[1][0] <= edge:
                self._samples.pop(0)
            base_ts, base, base_errors = self._samples[0]
        window = histogram_delta(cumulative, base) or {}
        requests = window.get("count", 0)
        window_errors = errors - base_errors
        p99 = quantile(window, 0.99)
        error_rate = (
            window_errors / (requests + window_errors)
            if (requests + window_errors)
            else 0.0
        )
        burn = (
            error_rate / self.error_rate_target
            if self.error_rate_target > 0
            else 0.0
        )
        return {
            "window_seconds": min(self.window_seconds, now - base_ts),
            "requests": requests,
            "errors": window_errors,
            "p99_seconds": p99,
            "p99_target": self.p99_target,
            "error_rate": error_rate,
            "budget_burn": burn,
        }


# ----------------------------------------------------------------------
# the health monitor
# ----------------------------------------------------------------------
class HealthMonitor:
    """Heartbeat poller + threshold alert rules over a shard fleet.

    ``poll(shard_id)`` performs one authenticated ``health`` round trip
    and returns the worker's report dict (raising a transport error
    marks the worker down). Alert rules compare each report — and the
    fleet-wide SLO view — against the module's thresholds; crossing a
    threshold *raises* the alert exactly once (``alert_raised`` event),
    and the first healthy evaluation
    afterwards *clears* it (``alert_cleared`` event), so flapping shows
    up as event pairs, not log spam. A failing ``on_poll`` (while every
    worker answers) or an exception escaping a background ``check()``
    is the fleet-level ``poll_failed`` alert until a clean round.
    """

    def __init__(
        self,
        poll: Callable[[int], dict],
        shard_ids,
        coordinator_round: Callable[[], int],
        registry=None,
        sink=None,
        on_poll: Optional[Callable[[], Any]] = None,
    ):
        self.poll = poll
        self.shard_ids = list(shard_ids)
        self.coordinator_round = coordinator_round
        self.obs = registry if registry is not None else default_registry()
        self.sink = sink if sink is not None else default_event_sink()
        self.on_poll = on_poll
        self.slo = SloTracker(SLO_WINDOW_SECONDS, SLO_P99_SECONDS, SLO_ERROR_RATE)
        #: (rule, shard or None) -> detail string for every active alert
        self._active: dict[tuple, str] = {}
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._ctr_polls = self.obs.counter("health.polls")
        self._g_active = self.obs.gauge("health.alerts_active")

    # -- alert state machine -------------------------------------------
    def _set_alert(
        self, firing: bool, rule: str, shard: Optional[int], detail: str
    ) -> None:
        key = (rule, shard)
        with self._lock:
            was = key in self._active
            if firing and not was:
                self._active[key] = detail
                self.sink.emit(
                    {
                        "type": "alert_raised",
                        "alert": rule,
                        "shard": shard,
                        "detail": detail,
                    }
                )
            elif not firing and was:
                self._active.pop(key)
                self.sink.emit(
                    {"type": "alert_cleared", "alert": rule, "shard": shard}
                )
            self._g_active.set(len(self._active))

    def active_alerts(self) -> list[dict]:
        with self._lock:
            return [
                {"alert": rule, "shard": shard, "detail": detail}
                for (rule, shard), detail in sorted(
                    self._active.items(), key=lambda kv: (kv[0][0], kv[0][1] or -1)
                )
            ]

    # -- one poll round -------------------------------------------------
    def check(self) -> dict:
        """Poll every worker, evaluate all rules, return the fleet view."""
        self._ctr_polls.inc()
        start = perf_counter()
        shards: dict[int, dict] = {}
        for shard_id in self.shard_ids:
            labels = {"shard": str(shard_id)}
            try:
                report = self.poll(shard_id)
            except Exception as error:
                self.obs.gauge("health.worker_up", labels=labels).set(0)
                self._set_alert(
                    True,
                    "worker_down",
                    shard_id,
                    f"{type(error).__name__}: {error}",
                )
                shards[shard_id] = {"up": False, "error": str(error)}
                continue
            report = dict(report)
            report["up"] = True
            shards[shard_id] = report
            self._set_alert(False, "worker_down", shard_id, "")
            self.obs.gauge("health.worker_up", labels=labels).set(1)
            self._evaluate_worker(shard_id, report)
        slo = self._evaluate_slo()
        failure = ""
        if self.on_poll is not None:
            try:
                self.on_poll()
            except Exception as error:
                failure = f"on_poll: {type(error).__name__}: {error}"
        # a worker that cannot answer is already worker_down
        down = any(not shard["up"] for shard in shards.values())
        self._set_alert(bool(failure) and not down, "poll_failed", None, failure)
        alerts = self.active_alerts()
        return {
            "healthy": not alerts,
            "fleet_round": self.coordinator_round(),
            "shards": shards,
            "slo": slo,
            "alerts": alerts,
            "poll_seconds": perf_counter() - start,
        }

    def _evaluate_worker(self, shard_id: int, report: dict) -> None:
        lag = self.coordinator_round() - report.get("fleet_round", 0)
        self._set_alert(
            lag >= EPOCH_LAG_ALERT,
            "epoch_lag",
            shard_id,
            f"worker fleet round lags coordinator by {lag}",
        )
        wal_pending = report.get("wal_pending", 0)
        self._set_alert(
            wal_pending >= WAL_LAG_ALERT,
            "wal_lag",
            shard_id,
            f"{wal_pending} WAL records awaiting durability sync",
        )
        epc = report.get("epc", {})
        capacity = epc.get("capacity", 0) or 1
        pressure = (epc.get("resident", 0) + epc.get("swapped", 0)) / capacity
        self._set_alert(
            pressure >= EPC_PRESSURE_ALERT,
            "epc_pressure",
            shard_id,
            f"EPC at {pressure:.0%} of capacity (swapping territory)",
        )

    def _evaluate_slo(self) -> dict:
        slo = self.slo.sample(self.obs.snapshot())
        self._set_alert(
            bool(slo["requests"]) and slo["p99_seconds"] > self.slo.p99_target,
            "slo_p99",
            None,
            f"windowed p99 {slo['p99_seconds']:.4f}s over target "
            f"{self.slo.p99_target:.4f}s",
        )
        self._set_alert(
            slo["budget_burn"] > 1.0,
            "error_budget",
            None,
            f"error budget burning at {slo['budget_burn']:.1f}x",
        )
        return slo

    # -- background polling --------------------------------------------
    def start(self, interval: float) -> None:
        """Poll every ``interval`` seconds on a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval):
                try:
                    self.check()
                except Exception as error:  # the next clean round clears it
                    self._set_alert(
                        True,
                        "poll_failed",
                        None,
                        f"check: {type(error).__name__}: {error}",
                    )

        self._thread = threading.Thread(
            target=loop, name="veridb-health", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None


__all__ = [
    "serialize_trace_segment",
    "sum_segment_totals",
    "snapshot_delta",
    "fold_metric_delta",
    "FederationState",
    "SloTracker",
    "HealthMonitor",
]
