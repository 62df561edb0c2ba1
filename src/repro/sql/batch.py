"""ColumnBatch: the unit of vectorized data flow.

The engine executes batch-at-a-time: every :class:`PhysicalOp` produces
:class:`ColumnBatch` objects instead of single tuples, amortizing
per-pull overhead (generator frames, timing laps, verified-memory
lock runs) over a chunk of rows — :data:`repro.storage.config.BATCH_ROWS`
of them for a scan.

A batch is its columns: one value list per output position, each
``length`` long. Every operator builds column lists — the scans from the
storage layer's column chunks, filters and projections by compacting and
evaluating columns, joins and sort by gathering positions, the aggregate
from its groups — so nothing is transposed between two operators. Row
tuples are built by :attr:`ColumnBatch.rows`, uncached, only where the
consumer is row-major: executor result assembly (the portal digests
rows), UPDATE/DELETE matching and spill. Rows become columns, through
:func:`transpose`, only where they arrive as rows: a verified point
read, a shard's reply, a spill read-back.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

from repro.storage import config

__all__ = ["ColumnBatch", "concat", "transpose"]


class ColumnBatch:
    """A slice of an operator's output: its columns and its cardinality."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: list[list], length: int):
        #: one value list per output position, each ``length`` long
        self.columns = columns
        self.length = length

    @property
    def rows(self) -> list[tuple]:
        """The batch as row tuples, transposed on every access."""
        return list(zip(*self.columns)) if self.columns else [()] * self.length

    # ------------------------------------------------------------------
    # structural transforms
    # ------------------------------------------------------------------
    def take(self, positions: Sequence[int]) -> "ColumnBatch":
        """The rows at ``positions``, in that order (repeats allowed)."""
        return ColumnBatch(
            [list(map(column.__getitem__, positions)) for column in self.columns],
            len(positions),
        )

    def take_chunks(self, positions: Sequence[int]) -> Iterator["ColumnBatch"]:
        """:meth:`take`, ``BATCH_ROWS`` positions at a time."""
        size = config.BATCH_ROWS
        for start in range(0, len(positions), size):
            yield self.take(positions[start : start + size])

    def take_mask(self, mask: list) -> "ColumnBatch":
        """Compact the batch to the rows whose mask entry is True."""
        columns = [list(compress(column, mask)) for column in self.columns]
        length = len(columns[0]) if columns else sum(map(bool, mask))
        return ColumnBatch(columns, length)

    def slice(self, count: int) -> "ColumnBatch":
        """The first ``count`` rows."""
        if count >= self.length:
            return self
        return ColumnBatch([column[:count] for column in self.columns], count)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __repr__(self) -> str:
        return f"ColumnBatch({self.length} rows, {len(self.columns)} cols)"


def concat(batches: Iterable[ColumnBatch], width: int) -> ColumnBatch:
    """One batch holding ``batches``' rows in order; ``width`` columns."""
    columns: list[list] = [[] for _ in range(width)]
    length = 0
    for batch in batches:
        for column, values in zip(columns, batch.columns):
            column += values
        length += batch.length
    return ColumnBatch(columns, length)


def transpose(rows: Sequence[tuple]) -> ColumnBatch:
    """Non-empty row tuples as a batch: each column holds the rows' own
    value objects, as they are."""
    return ColumnBatch([list(column) for column in zip(*rows)], len(rows))
