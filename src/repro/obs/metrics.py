"""Counters, gauges, latency histograms, and the metrics registry.

The observability layer has one hard requirement inherited from the
ROADMAP: it must cost nothing when nobody is looking. Every component
binds its instruments at construction time from a *registry*; the
default registry is :data:`NULL_REGISTRY`, whose instruments are shared
no-op singletons — an ``inc()`` on a null counter is a single Python
method call, and a component timing a phase binds its histogram only
when ``registry.enabled``, so the dark path reads no clock. Enabling
observability is a matter of installing a real :class:`MetricsRegistry`
as the process default (or passing one explicitly) *before* building the
system, which is exactly what the benchmark harness does.

Metric names are dotted, and the segment before the first dot is the
*layer* (``portal``, ``verifier``, ``memory``, ``storage``, ``sql``,
``sgx``). :func:`layer_breakdown` groups a snapshot along that
convention; the benchmark harness prints one section per layer.

Histograms keep count/sum/min/max plus sparse power-of-two buckets, so
they are unit-agnostic: the same type records seconds of latency and
simulated SGX cycles.

Instruments may carry **labels** — a small ``{key: value}`` dict that
distinguishes series of one logical metric (``shard="3"``) without
growing the metric *name* space. Labeled instruments live in the
registry under a canonical *series key* (``name{k="v",...}``, keys
sorted), snapshot under that key with a ``labels`` field, and render as
real Prometheus labels. Per-fleet cardinality therefore grows in
series, which scrapers aggregate, not in names, which they cannot.
"""

from __future__ import annotations

import math
import re
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional


def escape_label_value(value) -> str:
    """A label value as it sits between the quotes of ``k="..."``."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


_LABEL_PAIR = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
_ESCAPED = re.compile(r"\\(.)")


def _unescape(match: "re.Match") -> str:
    char = match.group(1)
    return "\n" if char == "n" else char


def series_key(name: str, labels: "dict[str, str] | None") -> str:
    """Canonical registry key for a (metric name, labels) series.

    Unlabeled series key as the bare name, so everything predating
    labels is unchanged; labeled series append ``{k="v",...}`` with
    keys sorted and values escaped, which is also valid Prometheus
    sample syntax.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{escape_label_value(labels[k])}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def split_series_key(key: str) -> "tuple[str, dict[str, str]]":
    """Inverse of :func:`series_key` (labels empty for bare names)."""
    brace = key.find("{")
    if brace < 0:
        return key, {}
    labels = {
        k: _ESCAPED.sub(_unescape, v)
        for k, v in _LABEL_PAIR.findall(key, brace + 1)
    }
    return key[:brace], labels


# ----------------------------------------------------------------------
# the histogram bucket format: the only code that knows bucket keys
# ----------------------------------------------------------------------
# Bucket ``e`` counts observations ``v`` with ``2**e <= v < 2**(e+1)``
# (``e`` may be negative: sub-second latencies land in negative
# exponents); zero observations get their own bucket, keyed ``None``.
def _bucket_of(value: float) -> "int | None":
    # frexp is exact where floor(log2(v)) rounds up just below a power of two
    return None if value == 0 else math.frexp(value)[1] - 1


def cumulative_buckets(data: dict) -> Iterator[tuple[float, int]]:
    """``(upper bound, cumulative count)`` per bucket of a histogram
    snapshot, ascending; the zero bucket, if any, first with bound 0."""
    buckets = data.get("buckets", {})
    seen = buckets.get(None, 0)
    if seen:
        yield 0.0, seen
    for exponent in sorted(e for e in buckets if e is not None):
        seen += buckets[exponent]
        yield 2.0 ** (exponent + 1), seen


def quantile(data: dict, q: float) -> float:
    """Approximate ``q``-quantile (``q`` in [0, 1]) of a histogram
    snapshot or delta; 0.0 when it is empty.

    The answer is the upper bound of the bucket holding the quantile,
    clamped to the maximum: never below the true quantile, and at most
    twice it.
    """
    count = data.get("count", 0)
    if not count:
        return 0.0
    target = q * count
    for bound, seen in cumulative_buckets(data):
        if seen >= target:
            return min(bound, data["max"])
    return data["max"]


def histogram_delta(current: dict, base: "dict | None") -> "dict | None":
    """What a histogram observed between two of its snapshots, or None.

    Count, sum and per-bucket increments — the form
    :meth:`Histogram.merge_snapshot` folds. ``min``/``max`` carry the
    *cumulative* extremes (those of a window cannot be recovered from
    cumulative data; folding still keeps them correct as all-time
    bounds).
    """
    base = base or {}
    count = current["count"] - base.get("count", 0)
    if not count:
        return None
    base_buckets = base.get("buckets", {})
    buckets = {}
    for exponent, n in current.get("buckets", {}).items():
        increment = n - base_buckets.get(exponent, 0)
        if increment:
            buckets[exponent] = increment
    delta = {
        "type": "histogram",
        "count": count,
        "sum": current["sum"] - base.get("sum", 0.0),
        "min": current.get("min"),
        "max": current.get("max"),
        "buckets": buckets,
    }
    if current.get("labels"):
        delta["labels"] = dict(current["labels"])
    return delta


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: "dict[str, str] | None" = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> dict:
        out = {"type": "counter", "value": self._value}
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class Gauge:
    """A value that goes up and down (sizes, liveness flags)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: "dict[str, str] | None" = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        out = {"type": "gauge", "value": self._value}
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class Histogram:
    """Sparse log2-bucketed distribution of non-negative observations.

    Bucket ``e`` counts observations ``v`` with ``2**e <= v < 2**(e+1)``
    (``e`` may be negative: sub-second latencies land in negative
    exponents). Zero observations get their own bucket, keyed ``None``.
    """

    __slots__ = (
        "name",
        "labels",
        "count",
        "total",
        "min",
        "max",
        "buckets",
        "_lock",
    )

    def __init__(self, name: str, labels: "dict[str, str] | None" = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.buckets: dict[int | None, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        if value < 0:
            value = 0.0
        key = _bucket_of(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        """Forget every observation; the instrument stays bound."""
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = math.inf
            self.max = 0.0
            self.buckets = {}

    def percentile(self, q: float) -> float:
        """:func:`quantile` of this histogram, ``q`` in [0, 1]."""
        return quantile(self.snapshot(), q)

    def merge_snapshot(self, data: dict) -> None:
        """Fold another histogram's snapshot (or delta) into this one.

        Sparse log2 buckets merge by *bucket addition* — two workers
        observing into the same exponent simply sum their counts, so a
        fleet-merged histogram answers quantiles exactly as if every
        observation had landed here. ``count``/``sum`` add; ``min``/
        ``max`` fold. Empty snapshots (count 0) are no-ops.
        """
        count = data.get("count", 0)
        if not count:
            return
        with self._lock:
            self.count += count
            self.total += data.get("sum", 0.0)
            if data.get("min", math.inf) < self.min:
                self.min = data["min"]
            if data.get("max", 0.0) > self.max:
                self.max = data["max"]
            for exponent, n in data.get("buckets", {}).items():
                self.buckets[exponent] = self.buckets.get(exponent, 0) + n

    def snapshot(self) -> dict:
        with self._lock:
            out = {
                "type": "histogram",
                "count": self.count,
                "sum": self.total,
                "min": 0.0 if self.count == 0 else self.min,
                "max": self.max,
                "mean": self.mean,
                # sparse log2 buckets, for the Prometheus exposition
                "buckets": dict(self.buckets),
            }
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class MetricsRegistry:
    """Named instruments and their point-in-time snapshot.

    Instruments are created on first use and shared by name; creation is
    thread-safe. ``gauge_fn`` registers a *callback gauge*: a zero-arg
    callable evaluated at snapshot time, for sizes that are cheaper to
    ask for than to maintain (e.g. the portal's replay-ledger size).
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauge_fns: dict[str, Callable[[], float]] = {}
        #: base metric name -> instrument kind; one logical metric must
        #: keep one type across all of its labeled series
        self._kinds: dict[str, str] = {}

    # ------------------------------------------------------------------
    # instrument access (get-or-create)
    # ------------------------------------------------------------------
    def counter(
        self, name: str, labels: Optional[dict] = None
    ) -> Counter:
        return self._get(self._counters, name, Counter, labels)

    def gauge(self, name: str, labels: Optional[dict] = None) -> Gauge:
        return self._get(self._gauges, name, Gauge, labels)

    def histogram(
        self, name: str, labels: Optional[dict] = None
    ) -> Histogram:
        return self._get(self._histograms, name, Histogram, labels)

    def gauge_fn(self, name: str, fn: Callable[[], float]) -> None:
        with self._lock:
            self._kinds.setdefault(name, "gauge")
            self._gauge_fns[name] = fn

    _KIND_BY_FACTORY = {
        "Counter": "counter",
        "Gauge": "gauge",
        "Histogram": "histogram",
    }

    def _get(self, table: dict, name: str, factory, labels=None):
        key = series_key(name, labels)
        instrument = table.get(key)
        if instrument is None:
            with self._lock:
                instrument = table.get(key)
                if instrument is None:
                    kind = self._KIND_BY_FACTORY[factory.__name__]
                    known = self._kinds.get(name)
                    if known is not None and known != kind:
                        raise ValueError(
                            f"metric {name!r} already registered as a "
                            f"different type"
                        )
                    self._kinds[name] = kind
                    instrument = table[key] = factory(name, labels)
        return instrument

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Point-in-time copy of every instrument, keyed by series key.

        Unlabeled instruments key by their metric name, exactly as
        before labels existed; labeled series key by
        ``name{k="v",...}`` and carry their labels in the data dict.
        """
        out: dict[str, dict] = {}
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
            gauge_fns = list(self._gauge_fns.items())
        for key, instrument in (*counters, *gauges, *histograms):
            out[key] = instrument.snapshot()
        for name, fn in gauge_fns:
            try:
                out[name] = {"type": "gauge", "value": fn()}
            except Exception:  # a dead callback must not break export
                out[name] = {"type": "gauge", "value": None}
        return dict(sorted(out.items()))

    def reset(self) -> None:
        """Zero every instrument *in place*.

        Handles components bound at construction stay live — clearing
        the tables instead would silently orphan them (their updates
        would stop appearing in snapshots).
        """
        with self._lock:
            for counter in self._counters.values():
                counter._value = 0
            for gauge in self._gauges.values():
                gauge._value = 0.0
            for histogram in self._histograms.values():
                histogram.reset()


# ----------------------------------------------------------------------
# the disabled (default) registry: shared no-op singletons
# ----------------------------------------------------------------------
class _NullInstrument:
    """Answers every instrument interface with a no-op."""

    __slots__ = ()
    name = "<null>"
    labels: dict = {}
    value = 0
    count = 0
    total = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def merge_snapshot(self, data: dict) -> None:
        pass

    def reset(self) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {}


_NULL = _NullInstrument()


class NullRegistry:
    """The zero-cost default: every instrument is the same no-op object."""

    enabled = False

    def counter(self, name: str, labels=None) -> _NullInstrument:
        return _NULL

    def gauge(self, name: str, labels=None) -> _NullInstrument:
        return _NULL

    def histogram(self, name: str, labels=None) -> _NullInstrument:
        return _NULL

    def gauge_fn(self, name: str, fn: Callable[[], float]) -> None:
        pass

    def snapshot(self) -> dict[str, dict]:
        return {}

    def reset(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()

_default_registry: MetricsRegistry | NullRegistry = NULL_REGISTRY

#: context-local override installed by :func:`scoped_registry`. Kept in
#: a ContextVar rather than the process global so two scopes entered
#: concurrently on different threads (e.g. parallel test workers, or a
#: benchmark main racing the background verifier thread) cannot clobber
#: each other's default on exit.
_scoped_override: ContextVar[MetricsRegistry | NullRegistry | None] = ContextVar(
    "veridb_scoped_registry", default=None
)


def default_registry() -> MetricsRegistry | NullRegistry:
    """The registry components bind when none is passed explicitly."""
    override = _scoped_override.get()
    if override is not None:
        return override
    return _default_registry


def set_default_registry(
    registry: MetricsRegistry | NullRegistry,
) -> MetricsRegistry | NullRegistry:
    """Install the process-wide default registry; returns the previous
    one, for the caller to restore.

    Components capture the default *at construction*, so install the
    registry before building the system you want to observe.
    """
    global _default_registry
    previous, _default_registry = _default_registry, registry
    return previous


@contextmanager
def scoped_registry(
    registry: MetricsRegistry | NullRegistry | None = None,
) -> Iterator[MetricsRegistry | NullRegistry]:
    """Temporarily install ``registry`` (default: a fresh one) as default.

    Context-local: the override rides a ContextVar, so the scope only
    affects the thread (or asyncio task) that entered it — components
    constructed on *other* threads keep seeing the process default, and
    concurrent scopes restore independently instead of racing on one
    global. Threads spawned while a scope is open start from a fresh
    context and therefore also see the process default; pass the scoped
    registry explicitly to anything you construct off-thread.
    """
    current = registry if registry is not None else MetricsRegistry()
    token = _scoped_override.set(current)
    try:
        yield current
    finally:
        _scoped_override.reset(token)


# ----------------------------------------------------------------------
# layer grouping
# ----------------------------------------------------------------------
#: layers the benchmark breakdown always lists, in display order
KNOWN_LAYERS = (
    "service",
    "shard",
    "health",
    "portal",
    "verifier",
    "memory",
    "storage",
    "sql",
    "sgx",
    "faults",
    "incidents",
    "wal",
    "recovery",
    "obs",
)


def layer_breakdown(snapshot: dict[str, dict]) -> dict[str, dict[str, dict]]:
    """Group a :meth:`MetricsRegistry.snapshot` by metric-name prefix."""
    layers: dict[str, dict[str, dict]] = {layer: {} for layer in KNOWN_LAYERS}
    for name, data in snapshot.items():
        layer = name.split(".", 1)[0]
        layers.setdefault(layer, {})[name] = data
    return layers
