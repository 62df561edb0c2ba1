"""Adversarial transport: tamper, replay, drop, splice — at 1/2/4 shards.

The coordinator↔worker wire is untrusted, exactly like host memory in
the single-enclave model. Every attack here manipulates raw reply bytes
through the link's ``reply_filter`` hook and must surface as the typed
error the envelope layer promises — never as silent data corruption.
"""

import pickle

import pytest

from repro.core.config import ShardConfig, VeriDBConfig
from repro.errors import (
    ShardReplyLost,
    ShardReplyReplayed,
    ShardReplyTampered,
)
from repro.obs.metrics import MetricsRegistry
from repro.shard import ShardedDatabase

SHARD_COUNTS = (1, 2, 4)


def fleet(shard_count):
    db = ShardedDatabase(
        ShardConfig(shard_count=shard_count, base=VeriDBConfig(key_seed=5)),
        registry=MetricsRegistry(),
    )
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    db.load_rows("t", [(i, i * 2) for i in range(20)])
    return db


def counter(db, name):
    snap = db.obs.snapshot().get(name)
    return 0 if snap is None else snap["value"]


def total(db):
    return db.execute("SELECT SUM(v) FROM t").rows[0][0]


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_tampered_reply_detected(shard_count):
    with fleet(shard_count) as db:
        assert total(db) == 380
        link = db.links[-1]

        def flip_payload_byte(reply):
            # flip one byte of the pickled body, leave the MAC alone
            return reply[:-1] + bytes([reply[-1] ^ 0xFF])

        link.reply_filter = flip_payload_byte
        with pytest.raises(ShardReplyTampered):
            total(db)
        assert counter(db, "shard.reply_tampered") == 1
        link.reply_filter = None
        assert total(db) == 380  # link recovers once the attack stops


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_forged_status_rejected_before_unpickle(shard_count):
    """Rewriting ok→err (or any body byte) without the key fails closed."""
    with fleet(shard_count) as db:
        link = db.links[0]

        def forge_body(reply):
            head = reply[: 24 + 32]
            return head + pickle.dumps(("ok", {"rows": [], "forged": True}))

        link.reply_filter = forge_body
        with pytest.raises(ShardReplyTampered):
            total(db)


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_replayed_reply_detected(shard_count):
    with fleet(shard_count) as db:
        link = db.links[0]
        stash = []

        def record(reply):
            stash.append(reply)
            return reply

        link.reply_filter = record
        assert total(db) == 380
        assert stash

        def redeliver(_reply):
            # deliver a perfectly authentic but stale reply
            return stash[0]

        link.reply_filter = redeliver
        with pytest.raises(ShardReplyReplayed):
            total(db)
        assert counter(db, "shard.reply_replayed") == 1


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_dropped_reply_detected(shard_count):
    with fleet(shard_count) as db:
        db.links[-1].reply_filter = lambda _reply: None
        with pytest.raises(ShardReplyLost):
            total(db)
        assert counter(db, "shard.reply_lost") == 1


@pytest.mark.parametrize("shard_count", [2, 4])
def test_spliced_reply_from_other_shard_detected(shard_count):
    """Shard B's authentic reply must not pass as shard A's."""
    with fleet(shard_count) as db:
        victim, donor = db.links[0], db.links[1]
        donor_replies = []

        def record(reply):
            donor_replies.append(reply)
            return reply

        donor.reply_filter = record
        assert total(db) == 380  # populate the stash
        victim.reply_filter = lambda _reply: donor_replies[-1]
        with pytest.raises(ShardReplyTampered):
            total(db)


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_attack_does_not_poison_results(shard_count):
    """After any detected attack, clean queries return clean answers."""
    with fleet(shard_count) as db:
        link = db.links[0]
        for attack in (
            lambda r: r[:-1] + bytes([r[-1] ^ 1]),
            lambda r: None,
        ):
            link.reply_filter = attack
            with pytest.raises((ShardReplyTampered, ShardReplyLost)):
                total(db)
            link.reply_filter = None
            assert total(db) == 380
        db.verify_now()  # and the fleet still closes its epoch


# ----------------------------------------------------------------------
# the same alarms on warm fragments, whose requests carry only an id
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
@pytest.mark.parametrize(
    "attack, alarm",
    [
        ("tamper", ShardReplyTampered),
        ("replay", ShardReplyReplayed),
        ("drop", ShardReplyLost),
    ],
)
def test_attacks_on_id_only_requests(shard_count, attack, alarm):
    with fleet(shard_count) as db:
        assert total(db) == 380  # every worker now holds the fragment
        link = db.links[-1]
        stash = []

        def record(reply):
            stash.append(reply)
            return reply

        link.reply_filter = record
        requests = counter(db, "shard.requests")
        assert total(db) == 380
        # id-only: one request per shard, no miss and no resend
        assert counter(db, "shard.requests") - requests == shard_count
        link.reply_filter = {
            "tamper": lambda r: r[:-1] + bytes([r[-1] ^ 0xFF]),
            "replay": lambda _r: stash[0],
            "drop": lambda _r: None,
        }[attack]
        with pytest.raises(alarm):
            total(db)
        link.reply_filter = None
        assert total(db) == 380
