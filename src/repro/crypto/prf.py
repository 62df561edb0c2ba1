"""Keyed pseudo-random function over structured inputs.

Algorithm 1 of the paper updates the read/write sets with
``PRF(addr, data)``; following Concerto we additionally bind a logical
timestamp, which is what makes replaying a stale value detectable. The PRF
here is keyed BLAKE2b truncated to 16 bytes — collision resistance of the
XOR-sum construction only needs the outputs to be unpredictable to the
adversary, who never learns the key (it lives inside the enclave).
"""

from __future__ import annotations

import hashlib
import struct

DIGEST_SIZE = 16

_U64 = struct.Struct("<Q")

#: what a cell's digest absorbs ahead of its data: ``(addr, timestamp)``
CELL_PREFIX = struct.Struct("<QQ")


class PRF:
    """A keyed PRF producing :data:`DIGEST_SIZE`-byte digests.

    The main entry point is :meth:`cell`, which digests one memory cell
    ``(addr, data, timestamp)`` exactly the way the verified Read/Write
    procedures and the epoch verifier need it. A generic :meth:`evaluate`
    over length-prefixed byte parts is provided for other uses.

    Implementation note: the keyed hash state is initialized once and
    copied per evaluation — BLAKE2's key block is absorbed at init, so
    cloning skips redoing that work on every call (PRF evaluation
    dominates the verification overhead, Section 6.1).
    """

    __slots__ = ("keyed", "calls")

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise ValueError("PRF key must be at least 16 bytes")
        #: ``keyed()`` is a fresh hash state with the key absorbed; the
        #: restamp kernel digests cells through it exactly as :meth:`cell`
        #: does and adds its evaluations to :attr:`calls` in bulk
        self.keyed = hashlib.blake2b(digest_size=DIGEST_SIZE, key=key).copy
        #: Number of PRF evaluations performed; the micro-benchmarks report
        #: this because the paper attributes nearly all verification
        #: overhead to PRF work (Section 6.1).
        self.calls = 0

    def cell(self, addr: int, data: bytes, timestamp: int) -> bytes:
        """Digest of a single memory cell.

        ``addr`` and ``timestamp`` are bound as fixed-width integers so no
        two distinct cells can serialize identically.
        """
        self.calls += 1
        h = self.keyed()
        h.update(CELL_PREFIX.pack(addr, timestamp))
        h.update(data)
        return h.digest()

    def evaluate(self, *parts: bytes) -> bytes:
        """Digest arbitrary byte parts with unambiguous framing."""
        self.calls += 1
        h = self.keyed()
        for part in parts:
            h.update(_U64.pack(len(part)))
            h.update(part)
        return h.digest()
