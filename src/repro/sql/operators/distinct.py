"""DISTINCT operator."""

from __future__ import annotations

from typing import Iterator

from repro.sql.batch import ColumnBatch
from repro.sql.operators.base import PhysicalOp


class DistinctOp(PhysicalOp):
    """Drop duplicate rows, preserving first-occurrence order.

    Each batch's rows are hashed once, across their columns, into a
    first-occurrence mask the batch is compacted by.
    """

    def __init__(self, child: PhysicalOp):
        super().__init__(child.output, [child])

    def batches(self) -> Iterator[ColumnBatch]:
        seen: set[tuple] = set()
        add = seen.add
        for batch in self.children[0].timed_batches():
            # `add` returns None: a value not seen yet is added, and kept
            mask = [key not in seen and not add(key) for key in zip(*batch.columns)]
            if all(mask):
                yield batch
            elif any(mask):
                yield batch.take_mask(mask)

    def describe(self) -> str:
        return "Distinct"
