"""The attack matrix with the trusted record cache enabled.

The cache serves point reads from inside the enclave, so the obvious
soundness worry is that a poisoned untrusted store hides behind a warm
trusted copy. These tests re-run every adversary capability against
cache-enabled databases at several cache sizes and prove detection
still lands — whether the post-attack read would hit (the verifier
flushes on every alarm and epoch close, so no stale copy survives) or
miss (the read re-runs the full Algorithm-1 protocol). A hot-hit probe
variant reads the attacked key repeatedly before detection to maximize
the chance the stale trusted copy is in play.
"""

import pytest

from repro.core.config import VeriDBConfig
from repro.errors import VerificationFailure
from repro.memory.adversary import Adversary
from repro.storage.config import StorageConfig

from tests.security.test_attack_matrix import (
    ATTACKS,
    DETECTION_ERRORS,
    build_db,
    detect,
)

#: a tiny cache (constant churn), a comfortable one, and an enormous
#: one (everything resident; stale copies would live longest)
CACHE_SIZES = (4 * 1024, 256 * 1024, 8 * 1024 * 1024)


def cached_config(cache_bytes: int) -> VeriDBConfig:
    return VeriDBConfig(
        storage=StorageConfig(cache_bytes=cache_bytes),
        key_seed=9,
    )


def warm_cache(db) -> None:
    """Point-read every row so the cache holds the whole table."""
    for i in range(12):
        db.sql(f"SELECT balance FROM acct WHERE id = {i}")


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
@pytest.mark.parametrize("cache_bytes", CACHE_SIZES)
def test_attack_detected_with_cache_enabled(attack_name, cache_bytes):
    db = build_db(cached_config(cache_bytes))
    client = db.connect()
    client.execute("SELECT COUNT(*) FROM acct")
    warm_cache(db)
    adversary = Adversary(db.storage.memory)
    ATTACKS[attack_name](db, adversary)
    caught = detect(db, client, attack_name)
    assert caught is not None, (
        f"attack {attack_name!r} went undetected with a "
        f"{cache_bytes}-byte cache"
    )
    assert isinstance(caught, DETECTION_ERRORS)
    # server-side alarms flush the cache: nothing stale survives.
    # (rollback_memory is detected by the *client's* sequence audit —
    # the server never raises, so no flush is expected there.)
    if attack_name != "rollback_memory":
        assert len(db.storage.cache) == 0


def test_hot_hit_probe_never_masks_corruption():
    """Hammer the attacked key so reads are served from the cache, then
    verify: the verification pass reads the untrusted store directly,
    so warm trusted copies cannot defer the alarm."""
    db = build_db(cached_config(8 * 1024 * 1024))
    warm_cache(db)
    adversary = Adversary(db.storage.memory)
    ATTACKS["corrupt"](db, adversary)
    # post-attack hot reads: served trusted, and that is sound — the
    # cached value IS the honest value the attacker overwrote
    for _ in range(5):
        rows = db.sql("SELECT balance FROM acct WHERE id = 5").rows
        assert rows == [(500,)]
    with pytest.raises(VerificationFailure):
        db.verify_now()
    # after the alarm the stale copy is gone; nothing serves id=5 from
    # the cache anymore
    assert len(db.storage.cache) == 0


def test_miss_path_detects_after_epoch_flush():
    """The miss side of the matrix: a clean epoch close empties the
    cache, so the next read of an erased cell goes to the untrusted
    store and the protocol alarms."""
    db = build_db(cached_config(8 * 1024 * 1024))
    warm_cache(db)
    db.verify_now()  # clean close: flushes every cached entry
    assert len(db.storage.cache) == 0
    adversary = Adversary(db.storage.memory)
    ATTACKS["erase"](db, adversary)
    with pytest.raises(DETECTION_ERRORS):
        db.sql("SELECT balance FROM acct WHERE id = 7")
