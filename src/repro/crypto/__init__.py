"""Cryptographic primitives used across VeriDB.

This subpackage is self-contained and has no dependency on the rest of the
system; everything else (the write-read consistent memory, the query
portal, the MB-Tree baseline) builds on it.

* :mod:`repro.crypto.keys` — key generation and derivation.
* :mod:`repro.crypto.prf` — keyed pseudo-random function over structured
  inputs; the ``PRF(addr, data, ts)`` of Algorithm 1.
* :mod:`repro.crypto.mac` — message authentication for query
  authorization and result endorsement (Section 5.1).
* :mod:`repro.crypto.merkle` — hash helpers for the MB-Tree baseline.
"""

from repro.crypto.keys import KeyChain, derive_key, generate_key
from repro.crypto.mac import MessageAuthenticator
from repro.crypto.merkle import hash_interior, hash_leaf
from repro.crypto.prf import PRF

__all__ = [
    "KeyChain",
    "MessageAuthenticator",
    "PRF",
    "derive_key",
    "generate_key",
    "hash_interior",
    "hash_leaf",
]
