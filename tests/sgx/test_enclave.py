"""Unit tests for the simulated enclave trust boundary."""

import pytest

from repro.errors import EnclaveError, IntegrityError
from repro.sgx.enclave import Enclave


@pytest.fixture
def enclave():
    return Enclave(name="test")


def test_ecall_dispatch(enclave):
    enclave.register_ecall("add", lambda a, b: a + b)
    assert enclave.ecall("add", 2, 3) == 5


def test_unknown_ecall_rejected(enclave):
    with pytest.raises(EnclaveError):
        enclave.ecall("missing")


def test_duplicate_ecall_rejected(enclave):
    enclave.register_ecall("f", lambda: None)
    with pytest.raises(EnclaveError):
        enclave.register_ecall("f", lambda: None)


def test_ecall_charges_cycles(enclave):
    enclave.register_ecall("noop", lambda: None)
    before = enclave.meter.snapshot()
    enclave.ecall("noop")
    after = enclave.meter.snapshot()
    assert after["ecalls"] == before["ecalls"] + 1
    assert after["cycles"] - before["cycles"] == enclave.meter.model.ecall_cycles


def test_measurement_changes_with_code(enclave):
    m0 = enclave.measurement
    enclave.load_code(b"module-a")
    m1 = enclave.measurement
    assert m0 != m1
    enclave.load_code(b"module-b")
    assert enclave.measurement != m1


def test_registering_ecall_extends_measurement(enclave):
    m0 = enclave.measurement
    enclave.register_ecall("g", lambda: None)
    assert enclave.measurement != m0


def test_seal_unseal_roundtrip(enclave):
    blob = enclave.seal(b"secret state")
    assert enclave.unseal(blob) == b"secret state"


def test_seal_hides_plaintext(enclave):
    blob = enclave.seal(b"secret state")
    assert b"secret state" not in blob


def test_unseal_detects_tampering(enclave):
    blob = bytearray(enclave.seal(b"secret"))
    blob[-1] ^= 0xFF
    with pytest.raises(IntegrityError):
        enclave.unseal(bytes(blob))


def test_unseal_rejects_truncated(enclave):
    with pytest.raises(IntegrityError):
        enclave.unseal(b"short")


def test_unseal_requires_same_keychain():
    blob = Enclave(name="a").seal(b"x")
    with pytest.raises(IntegrityError):
        Enclave(name="b").unseal(blob)


def test_attest_requires_platform(enclave):
    with pytest.raises(EnclaveError):
        enclave.attest(b"challenge")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sealed_blobs_are_byte_identical_to_the_bytewise_xor(seed):
    """``seal`` XORs as one big integer; snapshots, checkpoints and
    anchors sealed by earlier builds (a per-byte XOR) must still unseal,
    so the blob is pinned byte for byte over random keys and lengths."""
    import hashlib
    import random

    from repro.crypto.keys import KeyChain
    from repro.crypto.mac import MessageAuthenticator

    keychain = KeyChain(seed=seed)
    enclave = Enclave(name="test", keychain=keychain)

    def reference_seal(data: bytes) -> bytes:
        stream = bytearray()
        block = 0
        while len(stream) < len(data):
            stream.extend(
                hashlib.blake2b(
                    block.to_bytes(8, "little"),
                    key=keychain.seal_key,
                    digest_size=64,
                ).digest()
            )
            block += 1
        ciphertext = bytes(a ^ b for a, b in zip(data, stream))
        return MessageAuthenticator(keychain.seal_key).tag(ciphertext) + ciphertext

    rng = random.Random(seed)
    for length in (0, 1, 63, 64, 65, 4096):
        data = rng.randbytes(length)
        blob = enclave.seal(data)
        assert blob == reference_seal(data)
        assert enclave.unseal(blob) == data
    # leading/trailing zero bytes survive the integer round trip
    for data in (b"\x00" * 70, b"\x00" * 5 + b"x", b"x" + b"\x00" * 5):
        assert enclave.seal(data) == reference_seal(data)
        assert enclave.unseal(enclave.seal(data)) == data
