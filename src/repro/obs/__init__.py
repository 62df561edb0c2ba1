"""``repro.obs`` — dependency-free metrics, per-query ledgers, and exporters.

See :mod:`repro.obs.metrics` for the instrument/registry model (and the
one module that knows the histogram bucket format),
:mod:`repro.obs.trace_context` for the per-query run ledger,
:mod:`repro.obs.export` for the Prometheus/JSONL exporters,
:mod:`repro.obs.fleet` for cross-shard trace segments, metrics
federation and the health/SLO monitor, and :mod:`repro.obs.promlint`
for the exposition-format linter CI runs over fleet scrapes. The
metric-name catalog and usage guide live in ``docs/INTERNALS.md``
("Observability" and "Fleet observability").

A phase is timed one way everywhere: a histogram bound at construction
(only when the registry is enabled) and observed with a ``perf_counter``
delta, so the default null registry reads no clock.
"""

from repro.obs.export import (
    NULL_EVENT_SINK,
    JsonlEventSink,
    NullEventSink,
    default_event_sink,
    render_prometheus,
    scoped_event_sink,
    set_default_event_sink,
    write_prometheus_snapshot,
)
from repro.obs.fleet import (
    FederationState,
    HealthMonitor,
    SloTracker,
    fold_metric_delta,
    serialize_trace_segment,
    snapshot_delta,
    sum_segment_totals,
)
from repro.obs.metrics import (
    KNOWN_LAYERS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    default_registry,
    layer_breakdown,
    scoped_registry,
    series_key,
    set_default_registry,
    split_series_key,
)
from repro.obs.promlint import lint_prometheus, parse_prometheus
from repro.obs.trace_context import (
    COUNTED_FIELDS,
    OpStats,
    TraceContext,
    current_trace,
    trace_active,
)

__all__ = [
    "COUNTED_FIELDS",
    "KNOWN_LAYERS",
    "NULL_EVENT_SINK",
    "NULL_REGISTRY",
    "Counter",
    "FederationState",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "JsonlEventSink",
    "MetricsRegistry",
    "NullEventSink",
    "NullRegistry",
    "OpStats",
    "SloTracker",
    "TraceContext",
    "current_trace",
    "default_event_sink",
    "default_registry",
    "fold_metric_delta",
    "layer_breakdown",
    "lint_prometheus",
    "parse_prometheus",
    "render_prometheus",
    "scoped_event_sink",
    "scoped_registry",
    "serialize_trace_segment",
    "series_key",
    "set_default_event_sink",
    "set_default_registry",
    "snapshot_delta",
    "split_series_key",
    "sum_segment_totals",
    "trace_active",
    "write_prometheus_snapshot",
]
