"""Measurement helpers: per-operation-kind latency and threaded TPS."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.workloads.micro import Operation


@dataclass
class LatencyRecorder:
    """Accumulates per-kind totals; reports mean latency in microseconds."""

    totals: dict = field(default_factory=dict)  # kind -> (seconds, count)

    def record(self, kind: str, seconds: float) -> None:
        total, count = self.totals.get(kind, (0.0, 0))
        self.totals[kind] = (total + seconds, count + 1)

    def mean_us(self, kind: str) -> float:
        total, count = self.totals.get(kind, (0.0, 0))
        return 0.0 if count == 0 else total / count * 1e6

    def count(self, kind: str) -> int:
        return self.totals.get(kind, (0.0, 0))[1]

    def report(self) -> dict[str, float]:
        return {kind: self.mean_us(kind) for kind in sorted(self.totals)}


def run_operations(store, operations: Iterable[Operation]) -> LatencyRecorder:
    """Replay a micro-workload op stream, timing each operation.

    ``store`` is anything with the KV interface (KVTable, MBTree
    adapter).
    """
    recorder = LatencyRecorder()
    for op in operations:
        start = time.perf_counter()
        if op.kind == "get":
            store.get(op.key)
        elif op.kind == "insert":
            store.insert(op.key, op.value)
        elif op.kind == "update":
            store.update(op.key, op.value)
        elif op.kind == "delete":
            store.delete(op.key)
        else:  # pragma: no cover
            raise ValueError(f"unknown op kind {op.kind!r}")
        recorder.record(op.kind, time.perf_counter() - start)
    return recorder


def run_threaded(
    worker: Callable[[int], int], n_threads: int
) -> tuple[float, int]:
    """Run ``worker(thread_index) -> completed_count`` on N threads.

    Returns (elapsed_seconds, total_completed). Used by the TPC-C
    throughput benchmark.
    """
    counts = [0] * n_threads
    errors: list[BaseException] = []

    def call(index: int) -> None:
        try:
            counts[index] = worker(index)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=call, args=(i,)) for i in range(n_threads)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, sum(counts)
