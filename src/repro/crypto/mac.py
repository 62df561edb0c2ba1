"""Message authentication for queries and results.

Section 5.1: the client and the enclave share a pre-exchanged key; every
query carries a unique query id and a MAC, and every result is endorsed by
the enclave with a MAC the client checks. We use HMAC-SHA256 with
constant-time comparison.
"""

from __future__ import annotations

import hashlib
import hmac

TAG_SIZE = 32

#: HMAC's inner and outer key pads (RFC 2104), as translation tables
_IPAD, _OPAD = (bytes(x ^ pad for x in range(256)) for pad in (0x36, 0x5C))


class MessageAuthenticator:
    """HMAC-SHA256 tagging and verification under a shared key."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise ValueError("MAC key must be at least 16 bytes")
        # HMAC over hashlib states: the two padded-key blocks are hashed
        # once, and a tag is a few C calls on copies of them (the same
        # bytes as hmac.new, without its Python frames)
        key = (hashlib.sha256(key).digest() if len(key) > 64 else key).ljust(64, b"\0")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def tag(self, *parts: bytes) -> bytes:
        """Produce a tag over length-prefixed ``parts``."""
        inner = self._inner.copy()
        for part in parts:
            inner.update(len(part).to_bytes(8, "little"))
            inner.update(part)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def verify(self, tag: bytes, *parts: bytes) -> bool:
        """Constant-time check that ``tag`` authenticates ``parts``."""
        return hmac.compare_digest(tag, self.tag(*parts))
