"""Fused scan→filter→project pipeline (single-pass columnar execution).

The planner rewrites ``Project(Filter*(scan))`` and ``Filter+(scan)``
chains over a base-table scan into one
:class:`FusedScanFilterProjectOp`. The fused node pulls the scan's
batches — holding only the columns the statement reads (projection
pushdown, see :mod:`repro.sql.operators.scan`); every expression here
is compiled against that narrow schema — and, in a single pass per
batch:

1. evaluates every filter conjunct column-at-a-time into one AND-ed
   keep-mask;
2. compacts the batch's columns by the mask (no row tuple is built);
3. evaluates the projection expressions over the compacted batch,
   emitting a batch of the result columns.

No row tuple is built anywhere between the storage layer and the
next row-major boundary (executor result assembly, spill). The scan
stays a real child node: ``walk()``/``explain()`` still surface it,
verified-read and cycle costs still attribute to the leaf, and
plan-shape assertions (``SeqScan``/``RangeScan`` in EXPLAIN output)
hold — but there is only one operator hop, one timing lap and one
trace frame for the whole filter+project stage, all attributed to this
fusion node.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.sql.batch import ColumnBatch
from repro.sql.operators.base import PhysicalOp
from repro.sql.operators.filter import FilterOp
from repro.sql.operators.project import ProjectOp


class FusedScanFilterProjectOp(PhysicalOp):
    """One-pass columnar filter+project directly over a base-table scan."""

    def __init__(
        self,
        scan: PhysicalOp,
        filters: list[FilterOp],
        project: Optional[ProjectOp] = None,
    ):
        super().__init__(scan.output if project is None else project.output, [scan])
        self.predicates = [node.predicate for node in filters]
        self.exprs = None if project is None else project.exprs
        # selection passes its input schema through, so the filters and
        # the projection were compiled against the scan's own schema:
        # their evaluators run here as they are
        self._pred_fns = [node.batch_fn for node in filters]
        self._expr_fns = None if project is None else project.batch_fns

    def batches(self) -> Iterator[ColumnBatch]:
        pred_fns = self._pred_fns
        expr_fns = self._expr_fns
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
                yield batch
            else:
                yield ColumnBatch([fn(batch) for fn in expr_fns], len(batch))

    def describe(self) -> str:
        stages = []
        if self.predicates:
            preds = " AND ".join(repr(p) for p in self.predicates)
            stages.append(f"filter={preds}")
        if self.exprs is not None:
            stages.append(f"project=[{', '.join(self.output.names)}]")
        return f"FusedScanFilterProject({', '.join(stages)})"
