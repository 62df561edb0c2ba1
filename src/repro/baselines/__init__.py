"""Comparison systems.

* :mod:`repro.baselines.mbtree` — MB-Tree [Li et al., SIGMOD'06], the
  classic MHT-based verifiable index used as the comparative baseline in
  Section 6.2. Every write recomputes the path to the root hash and
  every read ships an ADS; the global root lock is the concurrency
  bottleneck the paper measures against.
"""

from repro.baselines.mbtree import (
    MBTree,
    MBTreeProof,
    verify_point_proof,
    verify_range_proof,
)

__all__ = [
    "MBTree",
    "MBTreeProof",
    "verify_point_proof",
    "verify_range_proof",
]
