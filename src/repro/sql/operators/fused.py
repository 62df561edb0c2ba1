"""Fused scan→filter→project pipeline (single-pass columnar execution).

The planner rewrites ``Project(Filter*(scan))`` and ``Filter+(scan)``
chains over a base-table scan into one
:class:`FusedScanFilterProjectOp`. The fused node pulls the scan's
row-backed batches — whose rows hold only the columns the statement
reads (projection pushdown, see :mod:`repro.sql.operators.scan`); every
expression here is compiled against that narrow schema — and, in a
single pass per batch:

1. evaluates every filter conjunct column-at-a-time into one AND-ed
   keep-mask (only predicate-referenced columns are ever derived from
   the scan's tuples);
2. compacts the batch by the mask in its authoritative representation
   (the scan's existing row-tuple references — no new tuples are
   built);
3. evaluates the projection expressions over the compacted batch,
   emitting a *column-backed* batch.

No intermediate row tuples are materialized anywhere between the
storage layer and the next row-major boundary (executor result
assembly, spill, a join build side). The scan stays a real child node:
``walk()``/``explain()`` still surface it, verified-read and cycle
costs still attribute to the leaf, and plan-shape assertions
(``SeqScan``/``RangeScan`` in EXPLAIN output) hold — but there is only
one operator hop, one timing lap and one trace frame for the whole
filter+project stage, all attributed to this fusion node.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.sql.ast_nodes import Expr
from repro.sql.batch import ColumnBatch
from repro.sql.expressions import (
    RowSchema,
    compile_expr_batch,
    compile_predicate_batch,
)
from repro.sql.operators.base import PhysicalOp


class FusedScanFilterProjectOp(PhysicalOp):
    """One-pass columnar filter+project directly over a base-table scan."""

    def __init__(
        self,
        scan: PhysicalOp,
        predicates: list[Expr],
        exprs: Optional[list[Expr]] = None,
        names: Optional[list[str]] = None,
        qualifiers: Optional[list[Optional[str]]] = None,
    ):
        if exprs is None:
            output = scan.output
        else:
            if qualifiers is None:
                qualifiers = [None] * len(names)
            output = RowSchema(list(zip(qualifiers, names)))
        super().__init__(output, [scan])
        self.predicates = predicates
        self.exprs = exprs
        self._pred_fns = [
            compile_predicate_batch(p, scan.output) for p in predicates
        ]
        self._expr_fns = (
            None
            if exprs is None
            else [compile_expr_batch(e, scan.output) for e in exprs]
        )
        # filtering preserves the scan's interesting order; a projection
        # re-shapes the row and drops it (same contract as ProjectOp)
        self.ordering = list(scan.ordering) if exprs is None else []

    def batches(self) -> Iterator[ColumnBatch]:
        pred_fns = self._pred_fns
        expr_fns = self._expr_fns
        ordering = tuple(self.ordering)
        for batch in self.children[0].timed_batches():
            mask = None
            for fn in pred_fns:
                step = fn(batch)
                mask = (
                    step
                    if mask is None
                    else [a and b for a, b in zip(mask, step)]
                )
            if mask is not None and not all(mask):
                batch = batch.take_mask(mask)
                if not batch:
                    continue
            if expr_fns is None:
                if ordering and batch.ordering != ordering:
                    batch.ordering = ordering
                yield batch
            else:
                yield ColumnBatch(
                    [fn(batch) for fn in expr_fns], len(batch), ordering
                )

    def describe(self) -> str:
        stages = []
        if self.predicates:
            preds = " AND ".join(repr(p) for p in self.predicates)
            stages.append(f"filter={preds}")
        if self.exprs is not None:
            stages.append(f"project=[{', '.join(self.output.names)}]")
        return f"FusedScanFilterProject({', '.join(stages)})"
