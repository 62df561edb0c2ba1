"""Operator base class: schema, children, timing, batch protocol."""

from __future__ import annotations

import copy
from typing import Iterator

from repro.obs import Stopwatch
from repro.obs.trace_context import current_trace
from repro.sql.batch import DEFAULT_BATCH_SIZE, ColumnBatch
from repro.sql.expressions import RowSchema


class PhysicalOp:
    """Base of all physical operators.

    Execution is batch-at-a-time: subclasses implement :meth:`batches`
    (a fresh iterator of :class:`ColumnBatch` per call).

    Consumers iterate :meth:`timed_batches`, accumulating the wall time
    spent *producing* each batch into ``total_seconds`` — inclusive of
    children, one Stopwatch lap per batch rather than per row;
    ``self_seconds`` subtracts the children's totals, which is what the
    per-node breakdown reports. The consumer's time between pulls is
    never charged, and the executor folds every node's self time into
    per-operator latency histograms after the plan drains.
    """

    #: operators whose self-time counts as "scan nodes" in Figure 12
    is_scan = False

    #: rows per batch this operator emits; the planner stamps the
    #: configured ``StorageConfig.batch_size`` onto every plan node
    batch_size = DEFAULT_BATCH_SIZE

    #: record-cache regime the plan executes under; stamped by the
    #: planner from ``StorageConfig.cache_bytes`` so EXPLAIN output
    #: records whether point reads can be served from the trusted
    #: cache (0 = caching disabled)
    cache_bytes = 0

    def __init__(self, output: RowSchema, children: list["PhysicalOp"]):
        self.output = output
        self.children = children
        self.total_seconds = 0.0
        self.rows_out = 0
        self.batches_out = 0
        #: extra scan time incurred internally (index-nested-loop inner
        #: lookups), counted toward scan nodes
        self.internal_scan_seconds = 0.0
        #: the "interesting order" this operator's output is known to
        #: satisfy: a list of (qualifier, column, ascending) triples.
        #: Chain scans emit rows in key order, and the planner uses this
        #: to elide redundant sorts. Operators that preserve their input
        #: order (Filter, Limit) propagate it; order-destroying operators
        #: leave it empty.
        self.ordering: list[tuple] = []

    # ------------------------------------------------------------------
    def batches(self) -> Iterator[ColumnBatch]:
        """Produce the operator's output, one batch at a time."""
        raise NotImplementedError

    def timed_batches(self) -> Iterator[ColumnBatch]:
        # Time the batches() call itself: eager operators (scans, sorts)
        # do their work during construction, and missing it would
        # attribute their cost to an ancestor's self-time.
        trace = current_trace()
        if trace is not None:
            yield from self._traced_batches(trace)
            return
        watch = Stopwatch()
        watch.resume()
        iterator = self.batches()
        self.total_seconds += watch.pause()
        while True:
            watch.resume()
            try:
                batch = next(iterator)
            except StopIteration:
                self.total_seconds += watch.pause()
                return
            self.total_seconds += watch.pause()
            self.rows_out += len(batch)
            self.batches_out += 1
            yield batch

    def _traced_batches(self, trace) -> Iterator[ColumnBatch]:
        """Traced twin of :meth:`timed_batches`.

        While this operator is *producing* (the ``batches()`` call and
        each ``next()``), its :class:`~repro.obs.trace_context.OpStats`
        frame sits on top of the trace stack, so every verified read,
        cache probe, and cycle charge issued during that window lands on
        this operator. A child operator pulled from inside that window
        pushes its own frame for the duration of its lap, so leaf costs
        attribute to leaves, not ancestors. The stack is balanced per
        lap — never held across a ``yield`` — which keeps interleaved
        consumers (e.g. a merge join draining two inputs) correct.
        """
        frame = trace.op_stats(self)
        watch = Stopwatch()
        trace.push(frame)
        watch.resume()
        try:
            iterator = self.batches()
        finally:
            self.total_seconds += watch.pause()
            trace.pop()
        while True:
            trace.push(frame)
            watch.resume()
            try:
                try:
                    batch = next(iterator)
                except StopIteration:
                    return
            finally:
                self.total_seconds += watch.pause()
                trace.pop()
            self.rows_out += len(batch)
            self.batches_out += 1
            yield batch

    # ------------------------------------------------------------------
    def fresh(self) -> "PhysicalOp":
        """A pristine executable clone of this plan subtree.

        Plan-cache templates are shared across executions and threads;
        each execution runs a fresh clone so per-run statistics
        (``total_seconds``, ``rows_out``…) never race and the template
        stays untouched for EXPLAIN. Compiled expression closures and
        table handles are immutable at execution time and are shared,
        so cloning is a shallow copy per node plus a stats reset.
        """
        clone = copy.copy(self)
        clone.children = [child.fresh() for child in self.children]
        clone.total_seconds = 0.0
        clone.rows_out = 0
        clone.batches_out = 0
        clone.internal_scan_seconds = 0.0
        return clone

    @property
    def self_seconds(self) -> float:
        children_total = sum(c.total_seconds for c in self.children)
        return max(0.0, self.total_seconds - children_total)

    def walk(self) -> Iterator["PhysicalOp"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__
