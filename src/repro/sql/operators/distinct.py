"""DISTINCT operator."""

from __future__ import annotations

from typing import Iterator

from repro.sql.batch import ColumnBatch
from repro.sql.operators.base import PhysicalOp


class DistinctOp(PhysicalOp):
    """Drop duplicate rows, preserving first-occurrence order."""

    def __init__(self, child: PhysicalOp):
        super().__init__(child.output, [child])

    def batches(self) -> Iterator[ColumnBatch]:
        seen: set[tuple] = set()
        for batch in self.children[0].timed_batches():
            fresh = []
            for row in batch.rows:
                if row in seen:
                    continue
                seen.add(row)
                fresh.append(row)
            if fresh:
                yield ColumnBatch.from_rows(fresh)

    def describe(self) -> str:
        return "Distinct"
