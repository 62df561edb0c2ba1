"""The simulated enclave: trust boundary, ECall dispatch, sealing.

An :class:`Enclave` hosts trusted objects (the key chain, the RS/WS
digests, the monotonic counter, the query engine). Host code interacts
with it only through *ECalls* — entry points the enclave explicitly
registered — and every crossing is charged to the cycle meter. This gives
the repository a concrete, testable stand-in for the property the paper
gets from hardware: the adversary can corrupt anything outside the
enclave, nothing inside it.

Sealing wraps data with a key only this enclave holds, so state can be
parked in untrusted storage and later recovered (used by the recovery
tests); tampered sealed blobs fail to unseal.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Callable

from repro.crypto.keys import KeyChain
from repro.crypto.mac import MessageAuthenticator
from repro.errors import EnclaveError, IntegrityError
from repro.faults import default_fault_plane, sites as fault_sites
from repro.sgx.attestation import AttestationReport, PlatformQuotingKey, measure
from repro.sgx.costs import CycleMeter
from repro.sgx.counter import MonotonicCounter
from repro.sgx.epc import EnclavePageCache


class Enclave:
    """A software-simulated SGX enclave.

    Args:
        name: human-readable identifier, used in error messages.
        keychain: the root key material sealed into the enclave at build
            time; defaults to a freshly generated chain.
        epc: protected-memory accounting; shared between enclaves on the
            same (simulated) machine if desired.
        meter: cycle meter charged for every boundary crossing.
        platform: the machine's quoting identity for remote attestation.
    """

    def __init__(
        self,
        name: str = "veridb",
        keychain: KeyChain | None = None,
        epc: EnclavePageCache | None = None,
        meter: CycleMeter | None = None,
        platform: PlatformQuotingKey | None = None,
        faults=None,
    ):
        self.name = name
        self.faults = faults if faults is not None else default_fault_plane()
        self.meter = meter or CycleMeter()
        self.epc = epc or EnclavePageCache(meter=self.meter)
        self.keychain = keychain or KeyChain()
        self.platform = platform
        self.counter = MonotonicCounter()
        self._ecalls: dict[str, Callable[..., Any]] = {}
        self._code_identities: list[bytes] = []
        self._seal_mac = MessageAuthenticator(self.keychain.seal_key)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # loading & measurement
    # ------------------------------------------------------------------
    def load_code(self, identity: bytes) -> None:
        """Record a code identity as part of the enclave's measurement."""
        with self._lock:
            self._code_identities.append(identity)

    @property
    def measurement(self) -> bytes:
        """Hash of everything loaded into the enclave (MRENCLAVE analog)."""
        with self._lock:
            return measure(self._code_identities)

    def attest(self, challenge: bytes, report_data: bytes = b"") -> AttestationReport:
        """Produce a remote-attestation quote for this enclave."""
        if self.platform is None:
            raise EnclaveError("no platform quoting key configured")
        return self.platform.quote(self.measurement, challenge, report_data)

    # ------------------------------------------------------------------
    # ECall interface
    # ------------------------------------------------------------------
    def register_ecall(self, name: str, fn: Callable[..., Any]) -> None:
        """Expose ``fn`` as an enclave entry point.

        Registration also extends the measurement, mirroring how real
        enclave code is measured at load time.
        """
        with self._lock:
            if name in self._ecalls:
                raise EnclaveError(f"ECall {name!r} already registered")
            self._ecalls[name] = fn
        self.load_code(f"ecall:{name}".encode("utf-8"))

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Enter the enclave through a registered entry point.

        Charges the boundary-crossing cost; unknown entry points are
        rejected, which is what makes the trust boundary meaningful in the
        simulation.
        """
        fn = self._ecalls.get(name)
        if fn is None:
            raise EnclaveError(f"unknown ECall {name!r} on enclave {self.name!r}")
        # Injection site: the entry aborts before dispatch — no enclave
        # state has changed, so an identical retry is safe.
        self.faults.check(fault_sites.ECALL_ABORT)
        self.meter.charge_ecall()
        return fn(*args, **kwargs)

    # ------------------------------------------------------------------
    # sealed storage
    # ------------------------------------------------------------------
    def seal(self, data: bytes) -> bytes:
        """Wrap ``data`` for storage outside the enclave.

        The blob is encrypted with a key stream derived from the sealing
        key and authenticated with a MAC; only this enclave (same
        keychain) can unseal it, and any bit flip is detected.
        """
        ciphertext = self._xor_keystream(data)
        tag = self._seal_mac.tag(ciphertext)
        # Injection site: the blob is corrupted on its way to untrusted
        # storage; unsealing later fails authentication, never decrypts
        # garbage silently.
        return self.faults.mangle(fault_sites.SEAL_CORRUPTION, tag + ciphertext)

    def unseal(self, blob: bytes) -> bytes:
        """Recover sealed data; raises :class:`IntegrityError` on tampering."""
        if len(blob) < 32:
            raise IntegrityError("sealed blob truncated")
        tag, ciphertext = blob[:32], blob[32:]
        if not self._seal_mac.verify(tag, ciphertext):
            raise IntegrityError("sealed blob failed authentication")
        return self._xor_keystream(ciphertext)

    def _xor_keystream(self, data: bytes) -> bytes:
        """``data`` XOR the sealing key stream, as one big-integer XOR."""
        length = len(data)
        stream = self._keystream(length)
        return (
            int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
        ).to_bytes(length, "little")

    def _keystream(self, length: int) -> bytes:
        key = self.keychain.seal_key
        out = bytearray()
        block = 0
        while len(out) < length:
            out.extend(
                hashlib.blake2b(
                    block.to_bytes(8, "little"), key=key, digest_size=64
                ).digest()
            )
            block += 1
        return bytes(out[:length])
