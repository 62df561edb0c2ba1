"""Operator base class: schema, children, batch protocol."""

from __future__ import annotations

from typing import Iterator

from repro.obs.trace_context import current_trace
from repro.sql.batch import ColumnBatch
from repro.sql.expressions import RowSchema


class PhysicalOp:
    """Base of all physical operators.

    Execution is batch-at-a-time: subclasses implement :meth:`batches`
    (a fresh iterator of :class:`ColumnBatch` per call).

    A plan node is immutable once the planner returns it: a cached
    template is executed as it is, by any number of threads at once.
    What one run produces — rows, batches, wall time, costs — is booked
    to the run's ledger (:class:`~repro.obs.trace_context.TraceContext`),
    one frame per node, and only while a ledger is active.
    """

    #: operators whose self-time counts as "scan nodes" in Figure 12
    is_scan = False

    def __init__(self, output: RowSchema, children: list["PhysicalOp"]):
        self.output = output
        self.children = children
        #: the "interesting order" this operator's output is known to
        #: satisfy: a list of (qualifier, column, ascending) triples.
        #: Chain scans emit rows in key order, and the planner reads this
        #: while it decides on a sort, to elide a redundant one: only the
        #: operators planned below that decision (scans, and the filters
        #: over them, which propagate it) set it.
        self.ordering: list[tuple] = []

    # ------------------------------------------------------------------
    def batches(self) -> Iterator[ColumnBatch]:
        """Produce the operator's output, one batch at a time."""
        raise NotImplementedError

    def timed_batches(self) -> Iterator[ColumnBatch]:
        """What consumers iterate: :meth:`batches`, booked to the run's
        ledger when one is active (no clock read, no frame otherwise)."""
        trace = current_trace()
        if trace is None:
            yield from self.batches()
        else:
            yield from trace.drain(self)

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
