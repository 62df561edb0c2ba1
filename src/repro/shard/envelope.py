"""MAC-authenticated envelopes for the coordinator↔worker link.

The transport between the coordinator and its shard workers is
*untrusted* — exactly like the host memory between client and portal —
so every message rides in an authenticated envelope:

* **requests** are MACed under the shard's link key over
  ``(direction, shard id, request id, body)`` and carry a strictly
  increasing request id, so a host that records a DML request cannot
  replay it against the worker later. A pushed-down SELECT travels as
  ``("stmt", {fragment, params[, trace]})``: a coordinator-assigned
  fragment id, not the statement. The worker answers an id it does not
  hold with status ``"miss"`` (:data:`FRAGMENT_MISS` on the coordinator
  side), and the router resends once with the fragment's AST under
  ``stmt``;
* **replies** echo the request id and add a per-shard strictly
  increasing sequence number, all under the MAC, so the host can
  neither tamper with a reply (:class:`~repro.errors.ShardReplyTampered`),
  re-deliver an old one, splice shard A's answer into shard B's
  conversation, nor answer the wrong request
  (:class:`~repro.errors.ShardReplyReplayed`).

Framing is fixed-offset binary — id fields, the HMAC tag, then the
pickled body — and the body is **unpickled only after the MAC
verifies**: unauthenticated bytes never reach the deserializer.

Worker errors travel as ``("err", (class_name, message))`` and are
reconstructed from :mod:`repro.errors` by name on the coordinator side,
so a :class:`~repro.errors.VerificationFailure` raised inside a worker
enclave surfaces as the same typed alarm it would in-process.
"""

from __future__ import annotations

import pickle
from typing import Any

import repro.errors as errors_module
from repro.crypto.mac import MessageAuthenticator
from repro.errors import (
    AuthenticationError,
    ShardError,
    ShardReplyReplayed,
    ShardReplyTampered,
    VeriDBError,
)

#: what a link returns for a ``"miss"`` reply: the worker holds no plan
#: for the requested fragment id (first use, eviction or restart)
FRAGMENT_MISS = object()

_REQ = b"shard-request"
_REP = b"shard-reply"
_TAG_BYTES = 32


def _u64(value: int) -> bytes:
    return value.to_bytes(8, "little")


def link_key_purpose(shard_id: int) -> str:
    """Key-chain purpose string for one shard's link key."""
    return f"shard-mac:{shard_id}"


# ----------------------------------------------------------------------
# requests (coordinator → worker)
# ----------------------------------------------------------------------
def seal_request(
    mac: MessageAuthenticator,
    shard_id: int,
    request_id: int,
    op: str,
    payload: Any,
) -> bytes:
    body = pickle.dumps((op, payload))
    tag = mac.tag(_REQ, _u64(shard_id), _u64(request_id), body)
    return _u64(shard_id) + _u64(request_id) + tag + body


def open_request(
    mac: MessageAuthenticator, shard_id: int, blob: bytes, last_request_id: int
) -> tuple[int, str, Any]:
    """Worker side: verify and decode one request.

    Returns ``(request_id, op, payload)``; the caller is responsible
    for persisting ``request_id`` as its new replay floor.
    """
    if len(blob) < 16 + _TAG_BYTES:
        raise AuthenticationError("shard request truncated")
    claimed_shard = int.from_bytes(blob[0:8], "little")
    request_id = int.from_bytes(blob[8:16], "little")
    tag = blob[16 : 16 + _TAG_BYTES]
    body = blob[16 + _TAG_BYTES :]
    if claimed_shard != shard_id or not mac.verify(
        tag, _REQ, _u64(claimed_shard), _u64(request_id), body
    ):
        raise AuthenticationError(
            f"shard {shard_id} request MAC invalid: not sent by the "
            f"coordinator"
        )
    if request_id <= last_request_id:
        raise AuthenticationError(
            f"shard {shard_id} request id {request_id} replayed "
            f"(floor {last_request_id})"
        )
    op, payload = pickle.loads(body)
    return request_id, op, payload


# ----------------------------------------------------------------------
# replies (worker → coordinator)
# ----------------------------------------------------------------------
def seal_reply(
    mac: MessageAuthenticator,
    shard_id: int,
    request_id: int,
    seqno: int,
    status: str,
    payload: Any,
) -> bytes:
    body = pickle.dumps((status, payload))
    tag = mac.tag(
        _REP, _u64(shard_id), _u64(request_id), _u64(seqno), body
    )
    return _u64(shard_id) + _u64(request_id) + _u64(seqno) + tag + body


class ReplyVerifier:
    """Coordinator-side audit of one shard's reply stream.

    Holds the shard's link authenticator and the last accepted sequence
    number. Not thread-safe; the link serializes request/reply pairs
    under its own lock.
    """

    def __init__(self, shard_id: int, mac: MessageAuthenticator):
        self.shard_id = shard_id
        self._mac = mac
        self._last_seqno = 0

    def open(self, blob: bytes, expected_request_id: int) -> tuple[str, Any]:
        """Verify one reply; returns ``(status, payload)``."""
        if len(blob) < 24 + _TAG_BYTES:
            raise ShardReplyTampered(
                f"shard {self.shard_id} reply truncated", shard=self.shard_id
            )
        shard_id = int.from_bytes(blob[0:8], "little")
        request_id = int.from_bytes(blob[8:16], "little")
        seqno = int.from_bytes(blob[16:24], "little")
        tag = blob[24 : 24 + _TAG_BYTES]
        body = blob[24 + _TAG_BYTES :]
        if shard_id != self.shard_id or not self._mac.verify(
            tag, _REP, _u64(shard_id), _u64(request_id), _u64(seqno), body
        ):
            raise ShardReplyTampered(
                f"shard {self.shard_id} reply MAC invalid: tampered or "
                f"spliced by the transport",
                shard=self.shard_id,
            )
        if request_id != expected_request_id:
            raise ShardReplyReplayed(
                f"shard {self.shard_id} reply answers request {request_id}, "
                f"expected {expected_request_id}",
                shard=self.shard_id,
            )
        if seqno <= self._last_seqno:
            raise ShardReplyReplayed(
                f"shard {self.shard_id} reply sequence number {seqno} "
                f"does not advance past {self._last_seqno} (duplicate "
                f"delivery)",
                shard=self.shard_id,
            )
        self._last_seqno = seqno
        status, payload = pickle.loads(body)
        return status, payload


# ----------------------------------------------------------------------
# error transport
# ----------------------------------------------------------------------
def encode_error(error: BaseException) -> tuple[str, str]:
    return type(error).__name__, str(error)


def decode_error(payload: tuple[str, str], shard_id: int) -> VeriDBError:
    """Rebuild a worker-side error as its typed coordinator twin."""
    name, message = payload
    cls = getattr(errors_module, name, None)
    if isinstance(cls, type) and issubclass(cls, VeriDBError):
        try:
            return cls(message)
        except TypeError:
            pass
    return ShardError(
        f"shard {shard_id} failed: {name}: {message}", shard=shard_id
    )
