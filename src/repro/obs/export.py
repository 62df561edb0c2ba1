"""Pluggable exporters: Prometheus text exposition and JSONL events.

Two export surfaces on top of :mod:`repro.obs.metrics`:

* :func:`render_prometheus` — point-in-time Prometheus text exposition
  (version 0.0.4) of a registry snapshot. Counters and gauges map
  directly; histograms map to cumulative ``_bucket{le=...}`` series
  read through :func:`repro.obs.metrics.cumulative_buckets`.
  Metric names are prefixed ``veridb_`` and dots become underscores, so
  ``memory.verified_reads`` scrapes as ``veridb_memory_verified_reads``.
  Labeled series (federated per-shard metrics most of all) render as
  real label sets — one ``# HELP``/``# TYPE`` pair per metric family,
  one sample line per series, histogram buckets merging the series
  labels with ``le`` — so fleet dashboards aggregate with ordinary
  PromQL (``sum by (shard)``) instead of name regexes.
* **Structured events** — a process-default *event sink* mirroring the
  registry pattern: components bind :func:`default_event_sink` at
  construction, the default :data:`NULL_EVENT_SINK` drops everything at
  the cost of one attribute check, and installing a
  :class:`JsonlEventSink` (normally via :func:`scoped_event_sink`)
  turns on an append-only stream of one JSON object per line:
  per-query trace completions, verification epoch closes, incident
  open/resolve, and fault-injection firings.

Events carry ``type`` plus type-specific fields; the sink stamps a
monotonic sequence number so an interleaved multi-thread stream can be
totally ordered after the fact.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.obs.metrics import (
    cumulative_buckets,
    default_registry,
    escape_label_value,
    split_series_key,
)

# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_PROM_PREFIX = "veridb_"


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    return _PROM_PREFIX + "".join(out)


def _label_str(labels: dict, extra: "tuple[str, str] | None" = None) -> str:
    """Render a label set (plus an optional ``le``-style pair) or ``""``."""
    pairs = [
        (k, escape_label_value(v)) for k, v in sorted(labels.items())
    ]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def render_prometheus(registry) -> str:
    """Render a registry snapshot as Prometheus text exposition.

    Works on anything with the registry ``snapshot()`` shape; a
    :class:`~repro.obs.metrics.NullRegistry` renders to an empty
    string. Histogram buckets are cumulative, in the order and with
    the bounds :func:`~repro.obs.metrics.cumulative_buckets` gives.
    Series of one metric family (same base name, different labels) are
    grouped under a single ``# HELP``/``# TYPE`` header.
    """
    # group series by base metric name, preserving snapshot order
    families: dict[str, list[tuple[dict, dict]]] = {}
    for key, data in registry.snapshot().items():
        base, key_labels = split_series_key(key)
        labels = data.get("labels") or key_labels
        families.setdefault(base, []).append((labels, data))
    lines: list[str] = []
    for base, series in families.items():
        prom = _prom_name(base)
        kind = series[0][1].get("type")
        if kind not in ("counter", "gauge", "histogram"):
            continue
        lines.append(f"# HELP {prom} VeriDB metric {base}")
        lines.append(f"# TYPE {prom} {kind}")
        for labels, data in series:
            label_str = _label_str(labels)
            if kind == "counter":
                lines.append(f"{prom}{label_str} {data['value']}")
            elif kind == "gauge":
                value = data["value"]
                rendered = "NaN" if value is None else f"{value:g}"
                lines.append(f"{prom}{label_str} {rendered}")
            else:
                for bound, count in cumulative_buckets(data):
                    le = _label_str(labels, ("le", f"{bound:g}"))
                    lines.append(f"{prom}_bucket{le} {count}")
                inf = _label_str(labels, ("le", "+Inf"))
                lines.append(f"{prom}_bucket{inf} {data['count']}")
                lines.append(f"{prom}_sum{label_str} {data['sum']:.9g}")
                lines.append(f"{prom}_count{label_str} {data['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus_snapshot(registry, path: str) -> str:
    """Write :func:`render_prometheus` output to ``path``; returns it."""
    with open(path, "w") as fh:
        fh.write(render_prometheus(registry))
    return path


# ----------------------------------------------------------------------
# structured-event sinks
# ----------------------------------------------------------------------
class NullEventSink:
    """The zero-cost default: every event is dropped unseen."""

    enabled = False

    def emit(self, event: dict) -> None:
        pass

    @property
    def events(self) -> tuple:
        return ()

    def close(self) -> None:
        pass


NULL_EVENT_SINK = NullEventSink()


class JsonlEventSink:
    """Append-only JSONL stream of structured events.

    With ``path`` set, every event is serialized and appended to the
    file as it arrives (one JSON object per line, flushed per event so
    a crash loses at most the in-flight line); without a path the sink
    keeps events in memory (:attr:`events`) — the mode tests and
    in-process consumers use. Either way each event gains ``seq`` (a
    process-local total order) and ``ts`` (unix seconds).

    Thread-safe. Emission volume is exported through the bound registry
    as the ``obs.events_emitted`` counter.
    """

    enabled = True

    def __init__(self, path: str | None = None, registry=None):
        self.path = path
        self._lock = threading.Lock()
        self._seq = 0
        self._events: list[dict] = []
        self._fh = open(path, "a") if path is not None else None
        obs = registry if registry is not None else default_registry()
        self._ctr_events = obs.counter("obs.events_emitted")

    def emit(self, event: dict) -> None:
        record = dict(event)
        record["ts"] = time.time()
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            if self._fh is not None:
                self._fh.write(json.dumps(record, sort_keys=True, default=str))
                self._fh.write("\n")
                self._fh.flush()
            else:
                self._events.append(record)
        self._ctr_events.inc()

    @property
    def events(self) -> tuple[dict, ...]:
        with self._lock:
            return tuple(self._events)

    def events_of(self, type_: str) -> list[dict]:
        return [e for e in self.events if e.get("type") == type_]

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# Like the metrics registry, the process default is captured by
# components at construction; scoped_event_sink layers a per-context
# override on top so concurrent scopes on different threads (or tasks)
# cannot clobber each other's sink.
_default_sink: JsonlEventSink | NullEventSink = NULL_EVENT_SINK
_scoped_sink: ContextVar["JsonlEventSink | NullEventSink | None"] = ContextVar(
    "veridb_scoped_event_sink", default=None
)


def default_event_sink() -> JsonlEventSink | NullEventSink:
    """The sink components bind when none is passed explicitly."""
    override = _scoped_sink.get()
    if override is not None:
        return override
    return _default_sink


def set_default_event_sink(sink) -> JsonlEventSink | NullEventSink:
    """Install the process-wide default event sink; returns it."""
    global _default_sink
    _default_sink = sink
    return sink


@contextmanager
def scoped_event_sink(sink=None):
    """Temporarily install ``sink`` (default: a fresh in-memory one).

    Context-local: the override is carried by a ContextVar, so scopes
    opened concurrently on different threads stay isolated.
    """
    current = sink if sink is not None else JsonlEventSink()
    token = _scoped_sink.set(current)
    try:
        yield current
    finally:
        _scoped_sink.reset(token)

