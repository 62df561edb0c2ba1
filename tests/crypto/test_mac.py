"""Unit tests for HMAC message authentication."""

import pytest

from repro.crypto.mac import TAG_SIZE, MessageAuthenticator


@pytest.fixture
def mac():
    return MessageAuthenticator(b"m" * 32)


def test_tag_size(mac):
    assert len(mac.tag(b"hello")) == TAG_SIZE


def test_verify_accepts_genuine(mac):
    tag = mac.tag(b"query", b"42")
    assert mac.verify(tag, b"query", b"42")


def test_verify_rejects_tampered_message(mac):
    tag = mac.tag(b"query", b"42")
    assert not mac.verify(tag, b"query", b"43")


def test_verify_rejects_tampered_tag(mac):
    tag = bytearray(mac.tag(b"query"))
    tag[0] ^= 1
    assert not mac.verify(bytes(tag), b"query")


def test_verify_rejects_wrong_key():
    tag = MessageAuthenticator(b"a" * 32).tag(b"q")
    assert not MessageAuthenticator(b"b" * 32).verify(tag, b"q")


def test_framing_unambiguous(mac):
    assert mac.tag(b"ab", b"c") != mac.tag(b"a", b"bc")


def test_short_key_rejected():
    with pytest.raises(ValueError):
        MessageAuthenticator(b"tiny")


# ----------------------------------------------------------------------
# the pre-keyed implementation is bit-identical to HMAC built per call
# ----------------------------------------------------------------------
def _reference_tag(key: bytes, *parts: bytes) -> bytes:
    """The tag as specified: a fresh HMAC-SHA256 per call."""
    import hashlib
    import hmac

    mac = hmac.new(key, digestmod=hashlib.sha256)
    for part in parts:
        mac.update(len(part).to_bytes(8, "little"))
        mac.update(part)
    return mac.digest()


@pytest.mark.parametrize("key_len", [16, 32, 63, 64, 65, 200])
def test_tags_equal_fresh_hmac_over_random_keys_and_lengths(key_len):
    """Envelopes, endorsements, WAL chains and sealed blobs written by
    earlier builds must keep verifying: same bytes, every key length on
    both sides of SHA-256's 64-byte block, every message length."""
    import random

    rng = random.Random(key_len)
    key = rng.randbytes(key_len)
    auth = MessageAuthenticator(key)
    for length in (0, 1, 63, 64, 65, 4096):
        message = rng.randbytes(length)
        assert auth.tag(message) == _reference_tag(key, message)
        assert auth.tag(message, b"", message) == _reference_tag(
            key, message, b"", message
        )
    assert auth.tag() == _reference_tag(key)
    # tagging never mutates the keyed state it copies from
    assert auth.tag(b"again") == _reference_tag(key, b"again")
