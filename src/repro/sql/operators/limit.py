"""LIMIT operator."""

from __future__ import annotations

from typing import Iterator

from repro.sql.batch import ColumnBatch
from repro.sql.operators.base import PhysicalOp


class LimitOp(PhysicalOp):
    """Stop after N rows (early termination propagates to children)."""

    def __init__(self, child: PhysicalOp, limit: int):
        super().__init__(child.output, [child])
        self.limit = limit

    def batches(self) -> Iterator[ColumnBatch]:
        if self.limit <= 0:
            return
        remaining = self.limit
        for batch in self.children[0].timed_batches():
            if len(batch) >= remaining:
                yield batch.slice(remaining)
                return
            remaining -= len(batch)
            yield batch

    def describe(self) -> str:
        return f"Limit({self.limit})"
