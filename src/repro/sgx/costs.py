"""Cycle-cost model for SGX operations.

The paper motivates VeriDB's architecture with two hardware costs
(Section 2.1): crossing the enclave boundary (an ECall is ~8000 cycles)
and EPC paging (~40000 cycles per swapped page). Colocating the query
engine with the storage interfaces inside the enclave exists precisely to
avoid paying these: the engine runs in the enclave and reads untrusted
memory directly (Figure 2), so a verified read crosses nothing. The
simulation cannot reproduce the wall-clock cost, but it *accounts* for
every crossing and swap, so a whole query costs one ECall plus its EPC
swaps, never O(rows).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.obs import default_registry
from repro.obs.trace_context import current_trace


@dataclass(frozen=True)
class CostModel:
    """Cycle costs of SGX primitives, from the numbers quoted in the paper.

    Attributes:
        ecall_cycles: cost of entering the enclave (paper: ~8000 [20, 27]).
        epc_swap_cycles: cost of swapping one EPC page (paper: ~40000 [2, 6]).
        page_size: EPC page granularity in bytes.
    """

    ecall_cycles: int = 8000
    epc_swap_cycles: int = 40000
    page_size: int = 4096


class CycleMeter:
    """Thread-safe accumulator of simulated cycle costs.

    Components charge the meter as they cross the boundary or page the
    EPC; benchmarks read the totals to report the *modelled* hardware cost
    alongside measured wall-clock time.
    """

    def __init__(self, model: CostModel | None = None, registry=None):
        self.model = model or CostModel()
        self._lock = threading.Lock()
        self.cycles = 0
        self.ecalls = 0
        self.epc_swaps = 0
        obs = registry if registry is not None else default_registry()
        self._ctr_ecalls = obs.counter("sgx.ecalls")
        self._ctr_swaps = obs.counter("sgx.epc_swaps")
        self._ctr_cycles = obs.counter("sgx.simulated_cycles")

    def charge_ecall(self) -> None:
        with self._lock:
            self.ecalls += 1
            self.cycles += self.model.ecall_cycles
        self._ctr_ecalls.inc()
        self._ctr_cycles.inc(self.model.ecall_cycles)
        trace = current_trace()
        if trace is not None:
            trace.top.ecalls += 1
            trace.top.simulated_cycles += self.model.ecall_cycles

    def charge_epc_swaps(self, count: int) -> None:
        if count <= 0:
            return
        with self._lock:
            self.epc_swaps += count
            self.cycles += count * self.model.epc_swap_cycles
        self._ctr_swaps.inc(count)
        self._ctr_cycles.inc(count * self.model.epc_swap_cycles)
        trace = current_trace()
        if trace is not None:
            trace.top.epc_swaps += count
            trace.top.simulated_cycles += count * self.model.epc_swap_cycles

    def snapshot(self) -> dict:
        """Return a point-in-time copy of all counters."""
        with self._lock:
            return {
                "cycles": self.cycles,
                "ecalls": self.ecalls,
                "epc_swaps": self.epc_swaps,
            }

    def reset(self) -> None:
        with self._lock:
            self.cycles = 0
            self.ecalls = 0
            self.epc_swaps = 0


@dataclass
class CostReport:
    """Convenience diff between two :class:`CycleMeter` snapshots."""

    cycles: int = 0
    ecalls: int = 0
    epc_swaps: int = 0
    extra: dict = field(default_factory=dict)

    @classmethod
    def between(cls, before: dict, after: dict) -> "CostReport":
        return cls(
            cycles=after["cycles"] - before["cycles"],
            ecalls=after["ecalls"] - before["ecalls"],
            epc_swaps=after["epc_swaps"] - before["epc_swaps"],
        )
