"""Per-query trace contexts: who paid for each cost, not just how much.

:mod:`repro.obs.metrics` answers "how many verified reads happened in
this process"; this module answers "how many of them did *this query's
hash-join probe* perform". A :class:`TraceContext` is created per query
(by the portal for sampled client queries, or unconditionally by
``VeriDB.explain_analyze``) and carried through the execution by a
:class:`contextvars.ContextVar`, so two queries interleaving on
different threads — or different asyncio tasks — accumulate into
disjoint contexts with no shared mutable state.

A context is also the **run ledger**: plan nodes are immutable after
the planner returns, so every number one execution produces — rows,
batches, wall time, costs — lives in the :class:`OpStats` frame the
context keeps per plan node, and exists only while a context is active.

Inside a context, attribution follows a stack of :class:`OpStats`
frames. :meth:`TraceContext.drain` pushes an operator's frame around
each batch it produces, so costs incurred while an operator is
*producing* — verified reads in the storage layer, record-cache hits
and misses, simulated SGX cycles charged by the
:class:`~repro.sgx.costs.CycleMeter` — land on the innermost producing
operator, exactly as its wall time does. Costs incurred outside any
operator (portal authorization, DML row writes, planning) land on the
context's *root* frame, so the per-query totals always balance.

Zero-cost guarantee: the hot paths consult :func:`current_trace`, which
is one module-global integer compare while no trace is active anywhere
in the process — no ContextVar read, no clock read, no allocation. Only
entering a ``TraceContext`` (sampling decision already made) switches
the gate on.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from functools import partial
from time import perf_counter
from typing import Iterator

_current: ContextVar["TraceContext | None"] = ContextVar(
    "veridb_trace", default=None
)

#: number of TraceContexts currently entered, process-wide. The hot-path
#: gate: while zero, ``current_trace()`` returns without touching the
#: ContextVar. Mutated under ``_active_lock`` only on trace enter/exit.
_active_traces = 0
_active_lock = threading.Lock()


def trace_active() -> bool:
    """Whether any trace context is live anywhere in the process."""
    return _active_traces > 0


def current_trace() -> "TraceContext | None":
    """The trace context carrying this thread/task, or None.

    This is the call instrumented components make once per operation
    (or once per batch); with no trace active it is a single integer
    compare, preserving the unobserved hot path.
    """
    if _active_traces == 0:
        return None
    return _current.get()


#: OpStats fields that are exact counters (mirrored 1:1 by registry
#: counters), as opposed to measured wall time. Stitched remote totals
#: over these fields equal the sum of the worker registry deltas.
COUNTED_FIELDS = (
    "verified_reads",
    "cache_hits",
    "cache_misses",
    "ecalls",
    "simulated_cycles",
    "epc_swaps",
)


class OpStats:
    """One ledger frame: what one run charged to a single plan node.

    The same counters the process-wide registry keeps, scoped to one
    operator of one query, plus the node's output (``rows_out``,
    ``batches_out``) and its clock. ``total_seconds`` is the wall time
    the node spent producing, children included; ``wall_seconds`` is its
    own share — each child lap is taken out of the frame beneath it as
    the lap ends, so the frames of a context always sum to its elapsed
    time; ``inner_seconds`` is the part of the own share spent in
    verified inner lookups (index-nested-loop joins), which the
    Figure 12 split counts as scan work. ``extra`` holds what only
    scatter-gather nodes report (wire, scatter and merge time, the
    worker's stitched segment); :meth:`TraceContext.plan_data` merges
    it into the node's dict.
    """

    __slots__ = (
        "label",
        "verified_reads",
        "cache_hits",
        "cache_misses",
        "ecalls",
        "simulated_cycles",
        "epc_swaps",
        "wall_seconds",
        "total_seconds",
        "inner_seconds",
        "rows_out",
        "batches_out",
        "extra",
    )

    def __init__(self, label: str):
        self.label = label
        self.verified_reads = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.ecalls = 0
        self.simulated_cycles = 0
        self.epc_swaps = 0
        self.wall_seconds = 0.0
        self.total_seconds = 0.0
        self.inner_seconds = 0.0
        self.rows_out = 0
        self.batches_out = 0
        self.extra: dict | None = None

    @property
    def self_seconds(self) -> float:
        """Own wall time; a gather whose workers ran in parallel can be
        charged more remote time than it waited, hence the floor."""
        return max(0.0, self.wall_seconds)

    def as_dict(self) -> dict:
        out = {"label": self.label}
        for field in COUNTED_FIELDS:
            out[field] = getattr(self, field)
        out["wall_seconds"] = self.wall_seconds
        return out

    def add(self, other: "OpStats") -> None:
        for field in (*COUNTED_FIELDS, "wall_seconds"):
            setattr(self, field, getattr(self, field) + getattr(other, field))


#: what a plan node that never produced under a context reports (read-only)
IDLE_FRAME = OpStats("<none>")


class TraceContext:
    """Accounting context for one query, keyed by its query id.

    Use as a context manager around the execution::

        with TraceContext(qid="a1b2...") as trace:
            result = engine.execute(sql)
        trace.totals()          # per-query cost roll-up
        trace.op_stats(op)      # one operator's share

    A context is owned by the single thread/task executing its query;
    frames are pushed and popped only by that owner, so no locking is
    needed on the attribution path.

    ``sampled`` says someone asked to look at this run
    (``explain_analyze``, portal sampling, a coordinator's request to a
    worker). The ledger a :class:`~repro.sql.executor.QueryEngine` opens
    only to feed its own registry is not: the scatter router does not
    propagate it, and another engine does not book to it.
    """

    def __init__(self, qid: str, sampled: bool = True):
        self.qid = qid
        self.sampled = sampled
        self.root = OpStats("<query>")
        self._stack: list[OpStats] = [self.root]
        #: id(op) -> OpStats for every plan node that produced under
        #: this context (including subquery plans)
        self._by_op: dict[int, OpStats] = {}
        self.started_at = 0.0
        self.elapsed = 0.0
        self._token = None

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def __enter__(self) -> "TraceContext":
        global _active_traces
        self.started_at = perf_counter()  # first: a raising clock leaves no trace active
        self._token = _current.set(self)
        with _active_lock:
            _active_traces += 1
        return self

    def __exit__(self, *exc) -> None:
        global _active_traces
        self.elapsed = perf_counter() - self.started_at
        # whatever no operator claimed (parsing, planning, result
        # materialization) is the root's own share
        self.root.total_seconds = self.elapsed
        self.root.wall_seconds += self.elapsed
        with _active_lock:
            _active_traces -= 1
        _current.reset(self._token)
        self._token = None

    # ------------------------------------------------------------------
    # the attribution stack
    # ------------------------------------------------------------------
    @property
    def top(self) -> OpStats:
        """The frame currently charged (innermost producing operator)."""
        return self._stack[-1]

    def op_stats(self, op) -> OpStats:
        """The (created-on-first-use) frame for one plan node."""
        stats = self._by_op.get(id(op))
        if stats is None:
            stats = self._by_op[id(op)] = OpStats(type(op).__name__)
        return stats

    def op_stats_if_traced(self, op) -> OpStats | None:
        """The frame for ``op`` if it produced under this trace."""
        return self._by_op.get(id(op))

    def push(self, stats: OpStats) -> None:
        self._stack.append(stats)

    def pop(self) -> None:
        self._stack.pop()

    def charge(self, frame: OpStats, seconds: float) -> None:
        """Book ``seconds`` of producing to ``frame``, nested in the top."""
        frame.total_seconds += seconds
        frame.wall_seconds += seconds
        self._stack[-1].wall_seconds -= seconds

    def _lap(self, frame: OpStats, produce):
        self._stack.append(frame)
        start = perf_counter()
        try:
            return produce()
        finally:
            seconds = perf_counter() - start
            self._stack.pop()
            self.charge(frame, seconds)

    def drain(self, op) -> Iterator:
        """Yield ``op.batches()``, booking each lap to the operator's frame.

        While the operator is *producing* (the ``batches()`` call —
        eager operators do their work there — and each ``next()``) its
        frame sits on top of the stack, so every verified read, cache
        probe and cycle charge issued in that window lands on it. A
        child pulled from inside the window pushes its own frame for the
        duration of its lap, so leaf costs attribute to leaves. The
        stack is balanced per lap — never held across a ``yield`` —
        which keeps interleaved consumers (a merge join draining two
        inputs) correct, and the consumer's time between pulls is never
        charged.
        """
        frame = self.op_stats(op)
        pull = partial(next, self._lap(frame, op.batches), None)
        while (batch := self._lap(frame, pull)) is not None:
            frame.rows_out += len(batch)
            frame.batches_out += 1
            yield batch

    # ------------------------------------------------------------------
    # roll-ups
    # ------------------------------------------------------------------
    def frames(self) -> Iterator[OpStats]:
        """Every frame: the root plus one per traced plan node."""
        yield self.root
        yield from self._by_op.values()

    def totals(self) -> dict:
        """Whole-query totals: the sum of every frame.

        By construction this equals the delta the process-wide registry
        saw for the costs charged while this context was active on its
        thread — the property the EXPLAIN ANALYZE tests pin.
        """
        total = OpStats("<total>")
        for frame in self.frames():
            total.add(frame)
        out = total.as_dict()
        out["label"] = self.qid
        out["elapsed_seconds"] = self.elapsed
        return out

    def plan_data(self, op) -> dict:
        """The plan subtree under ``op`` as nested dicts of its frames.

        The one node form: ``explain_analyze`` renders it, and a worker
        ships it to the coordinator as its trace segment's ``plan``.
        """
        frame = self._by_op.get(id(op)) or IDLE_FRAME
        node = frame.as_dict()
        node["label"] = op.describe()
        node["op"] = type(op).__name__
        node["rows_out"] = frame.rows_out
        node["batches_out"] = frame.batches_out
        node["self_seconds"] = frame.self_seconds
        node["total_seconds"] = frame.total_seconds
        if frame.extra:
            node.update(frame.extra)
        node["children"] = [self.plan_data(child) for child in op.children]
        return node
