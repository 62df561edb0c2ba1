"""Spans: where the wall-clock time goes.

A :class:`Span` is a context manager timing one named region. Spans nest
through a thread-local stack, so a parent knows how much of its time was
spent inside children (``self_seconds``); on exit the span's total is
observed into its registry's histogram of the same name. This is what
the portal and executor wrap their phases in. (The SQL operators time
their batch streams into the run ledger,
:meth:`repro.obs.trace_context.TraceContext.drain`.)
"""

from __future__ import annotations

from contextvars import ContextVar
from time import perf_counter

# The open-span stack rides a ContextVar: per-thread like the previous
# thread-local (each thread starts from a fresh context), but also
# correct for asyncio tasks, and immune to the cross-thread clobbering
# a process-global would suffer under concurrent service workers and
# the background verifier thread.
_stack: ContextVar["list[Span] | None"] = ContextVar(
    "veridb_span_stack", default=None
)


def current_span() -> "Span | None":
    """The innermost open span in this thread/task's context, if any."""
    spans = _stack.get()
    return spans[-1] if spans else None


class Span:
    """One timed region of a trace; records into ``registry`` on exit.

    When a structured-event sink is installed (see
    :mod:`repro.obs.export`), each span additionally emits
    ``span_open``/``span_close`` events, giving the JSONL stream the
    begin/end markers a trace viewer needs.
    """

    __slots__ = ("name", "registry", "elapsed", "child_seconds", "_start", "_sink")

    def __init__(self, name: str, registry):
        self.name = name
        self.registry = registry
        self.elapsed = 0.0
        self.child_seconds = 0.0
        self._start = 0.0
        self._sink = None

    def __enter__(self) -> "Span":
        spans = _stack.get()
        if spans is None:
            spans = []
            _stack.set(spans)
        spans.append(self)
        from repro.obs.export import default_event_sink

        sink = default_event_sink()
        if sink.enabled:
            self._sink = sink
            sink.emit({"type": "span_open", "name": self.name})
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = perf_counter() - self._start
        spans = _stack.get()
        spans.pop()
        if spans:
            spans[-1].child_seconds += self.elapsed
        self.registry.histogram(self.name).observe(self.elapsed)
        if self._sink is not None:
            self._sink.emit(
                {
                    "type": "span_close",
                    "name": self.name,
                    "elapsed_seconds": self.elapsed,
                    "self_seconds": self.self_seconds,
                }
            )
            self._sink = None

    @property
    def self_seconds(self) -> float:
        """Time spent in this span excluding its child spans."""
        return max(0.0, self.elapsed - self.child_seconds)
