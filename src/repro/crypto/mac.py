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


class MessageAuthenticator:
    """HMAC-SHA256 tagging and verification under a shared key."""

    __slots__ = ("_keyed",)

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise ValueError("MAC key must be at least 16 bytes")
        # the key schedule (two padded-key hash blocks) is paid once;
        # every tag starts from a copy of the keyed state
        self._keyed = hmac.new(key, digestmod=hashlib.sha256)

    def tag(self, *parts: bytes) -> bytes:
        """Produce a tag over length-prefixed ``parts``."""
        mac = self._keyed.copy()
        for part in parts:
            mac.update(len(part).to_bytes(8, "little"))
            mac.update(part)
        return mac.digest()

    def verify(self, tag: bytes, *parts: bytes) -> bool:
        """Constant-time check that ``tag`` authenticates ``parts``."""
        return hmac.compare_digest(tag, self.tag(*parts))
