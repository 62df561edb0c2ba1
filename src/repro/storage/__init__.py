"""Page-structured verifiable storage (Section 4).

* :mod:`repro.storage.record` — deterministic binary record codec.
* :mod:`repro.storage.page` — slotted pages in untrusted memory with
  optionally-verified metadata.
* :mod:`repro.storage.heap` — page allocation and free-space tracking
  for a table.
* :mod:`repro.storage.keychain` — the ``(key, nKey)`` chain logic of
  Definitions 4.2 / 5.2 and the access-method proofs of Section 5.2.
* :mod:`repro.storage.table_store` — :class:`VerifiableTable`, the
  storage-facing table with Get / Insert / Delete / Update / Move and
  verified point, range and sequential access.
* :mod:`repro.storage.engine` — :class:`StorageEngine`, which owns the
  verified memory, the verifier and the page allocator.
"""

from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.record import RecordCodec
from repro.storage.table_store import VerifiableTable

__all__ = ["RecordCodec", "StorageConfig", "StorageEngine", "VerifiableTable"]
