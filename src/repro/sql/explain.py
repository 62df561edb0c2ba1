"""EXPLAIN ANALYZE: a drained plan tree annotated from the run ledger.

``VeriDB.explain_analyze`` executes a statement under a
:class:`~repro.obs.trace_context.TraceContext` and wraps the outcome in
an :class:`ExplainAnalyzeResult`. The plan is an immutable template;
every number shown — rows, batches, self time, verified reads, cache
hits/misses, boundary crossings, simulated SGX cycles — is read from the
frame the context kept for that node during this run.

``.text`` renders the annotated tree for humans; ``.data`` returns the
same information as a machine-readable dict whose ``totals`` equal the
per-query deltas the process-wide registry observed — the invariant the
observability tests pin.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.obs.trace_context import TraceContext
from repro.sql.executor import ExecutionResult, scan_split


def _walk(node: Optional[dict]) -> Iterator[dict]:
    if node is not None:
        yield node
        for child in node["children"]:
            yield from _walk(child)


class ExplainAnalyzeResult:
    """Execution result + per-operator traced cost attribution."""

    def __init__(
        self,
        sql: str,
        result: ExecutionResult,
        trace: TraceContext,
    ):
        self.sql = sql
        self.result = result
        self.trace = trace
        plan = result.plan
        #: the plan as nested node dicts (None for plan-less statements)
        self.plan = None if plan is None else trace.plan_data(plan)

    # ------------------------------------------------------------------
    @property
    def rows(self) -> list[tuple]:
        return self.result.rows

    @property
    def columns(self) -> list[str]:
        return self.result.columns

    def totals(self) -> dict:
        """Whole-query cost roll-up (sum of every trace frame).

        Coordinator-side costs only — the process-registry-delta
        invariant is per process. Worker-side costs stitched in from
        remote trace segments are reported separately by
        :meth:`remote_totals`.
        """
        return self.trace.totals()

    def seconds(self) -> dict:
        """The Figure 12 decomposition of this run's operator time."""
        if self.plan is None:
            return {"total_s": 0.0, "scan_s": 0.0, "other_s": 0.0}
        scan, other = scan_split(self.result.plan, self.trace)
        return {
            "total_s": self.plan["total_seconds"],
            "scan_s": scan,
            "other_s": other,
        }

    # ------------------------------------------------------------------
    # stitched worker segments (sharded execution)
    # ------------------------------------------------------------------
    def remote_segments(self) -> list[dict]:
        """Worker trace segments stitched into this plan, shard order.

        Empty for single-instance execution; for a scattered query each
        :class:`~repro.shard.plan.ShardFragmentOp` leaf carries the
        segment its worker serialized into the MAC'd reply.
        """
        return [node["remote"] for node in _walk(self.plan) if "remote" in node]

    def remote_totals(self) -> Optional[dict]:
        """Summed worker-side costs, or None when nothing was stitched.

        For the counted fields this equals the sum of the per-worker
        registry deltas — the sharded extension of the exactness
        invariant the observability tests pin.
        """
        from repro.obs.fleet import sum_segment_totals

        segments = self.remote_segments()
        if not segments:
            return None
        return sum_segment_totals(segments)

    # ------------------------------------------------------------------
    # machine-readable form
    # ------------------------------------------------------------------
    @property
    def data(self) -> dict:
        out = {
            "qid": self.trace.qid,
            "sql": self.sql,
            "rowcount": self.result.rowcount,
            "elapsed_seconds": self.trace.elapsed,
            "plan": self.plan,
            "unattributed": self.trace.root.as_dict(),
            "totals": self.totals(),
        }
        remote = self.remote_totals()
        if remote is not None:
            out["remote_totals"] = remote
        return out

    # ------------------------------------------------------------------
    # human-readable form
    # ------------------------------------------------------------------
    @property
    def text(self) -> str:
        lines = []
        if self.plan is None:
            lines.append(f"(no plan: rowcount={self.result.rowcount})")
        else:
            _render(self.plan, 0, lines)
        root = self.trace.root
        lines.append(
            "unattributed: "
            f"reads={root.verified_reads} "
            f"cycles={root.simulated_cycles} "
            f"time={_fmt_seconds(root.wall_seconds)}"
        )
        totals = self.totals()
        lines.append(
            "totals: "
            f"reads={totals['verified_reads']} "
            f"cache={totals['cache_hits']}/{totals['cache_misses']} "
            f"crossings={totals['ecalls']} "
            f"cycles={totals['simulated_cycles']} "
            f"elapsed={_fmt_seconds(self.trace.elapsed)}"
        )
        remote = self.remote_totals()
        if remote is not None:
            lines.append(
                "remote totals: "
                f"reads={remote['verified_reads']} "
                f"cache={remote['cache_hits']}/{remote['cache_misses']} "
                f"crossings={remote['ecalls']} "
                f"cycles={remote['simulated_cycles']} "
                f"worker={_fmt_seconds(remote['elapsed_seconds'])}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.text


def _render(node: dict, indent: int, lines: list[str]) -> None:
    """One plan node (local, or from a worker's segment) and its subtree."""
    extra = ""
    if "merge_seconds" in node:
        extra = (
            f" scatter={_fmt_seconds(node['scatter_seconds'])}"
            f" merge={_fmt_seconds(node['merge_seconds'])}"
            f" pruned={node['pruned']}"
        )
    lines.append(
        "  " * indent
        + node["label"]
        + (
            f"  (rows={node['rows_out']} batches={node['batches_out']}"
            f" self={_fmt_seconds(node['self_seconds'])}"
            f" reads={node['verified_reads']}"
            f" cache={node['cache_hits']}/{node['cache_misses']}"
            f" crossings={node['ecalls']}"
            f" cycles={node['simulated_cycles']}{extra})"
        )
    )
    segment = node.get("remote")
    if segment is not None:
        lines.append(
            "  " * (indent + 1)
            + f"[shard {segment['shard']}] "
            f"wire={_fmt_seconds(node['wire_seconds'])} "
            f"worker={_fmt_seconds(segment['elapsed_seconds'])}"
        )
        if segment.get("plan") is not None:
            _render(segment["plan"], indent + 2, lines)
    for child in node["children"]:
        _render(child, indent + 1, lines)


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def explain_analyze(
    engine,
    sql: str,
    join_hint: Optional[str] = None,
    qid: Optional[str] = None,
) -> ExplainAnalyzeResult:
    """Run ``sql`` under a fresh trace context and annotate the plan."""
    import uuid

    trace = TraceContext(qid=qid or f"explain-{uuid.uuid4().hex[:12]}")
    with trace:
        result = engine.execute(sql, join_hint=join_hint)
    return ExplainAnalyzeResult(sql, result, trace)
