"""The MB-Tree's hashing, pinned by literals.

Each stream below grows the tree with ascending inserts (to three levels
at order 64), churns it with a seeded mix of inserts, overwrites,
updates and deletes (hits and misses), then drains it to empty.
The test folds the root hash after every operation into one digest and
reads the three work counters at the end. Figure 11 compares RSWS
against exactly this hash work, so a change to the tree's split point,
leaf removal, root collapse or rehash rule shows here first.

The literals were read off the tree as it stood before it became a
subclass of the index's :class:`~repro.index.btree.BPlusTree`. Print a
stream's figures with ``python tests/baselines/test_mbtree_pinned.py``.
"""

import hashlib
import random

import pytest

from repro.baselines.mbtree import MBTree

#: (order, seed, operations) -> (root-hash fold, hash_invocations,
#: bytes_hashed, hash_recomputations)
PINNED = {
    (4, 1, 1200): (
        "157f5992de1140c777b7fd5ad3092d0801180dde25392399052c79b93a46a0ee",
        17462,
        1355227,
        12430,
    ),
    (4, 2, 1200): (
        "d0051012fdafe11c3f883713ee27c9c16e8cd302e4134a7d461ae5a9d330981f",
        17362,
        1348185,
        12346,
    ),
    (64, 1, 4400): (
        "cbb3e49996f4b374d19cfa065bc245da0cf1ecf7eb2d17d66a755a12bb6b5e01",
        260789,
        22877737,
        21354,
    ),
}


def run_stream(order: int, seed: int, operations: int) -> tuple:
    rng = random.Random(seed)
    tree = MBTree(order=order)
    live: dict[int, bytes] = {}
    keys: list[int] = []  # live's keys, for a seeded choice
    fold = hashlib.sha256(tree.root_hash)

    def put(key: int, value: bytes) -> None:
        if key not in live:
            keys.append(key)
        live[key] = value

    def pick() -> int:
        return keys[rng.randrange(len(keys))]

    def drop(key: int) -> None:
        del live[key]
        i = keys.index(key)
        keys[i] = keys[-1]
        keys.pop()

    def step() -> None:
        assert len(tree) == len(live)
        fold.update(tree.root_hash)

    # ascending inserts fill the tree to three levels at order 64 ...
    for n in range(operations // 2):
        value = b"v%d" % n * rng.randint(1, 4)
        tree.insert(2 * n, value)
        put(2 * n, value)
        step()
    # ... then seeded churn over the same key range ...
    for n in range(operations):
        kind = rng.random()
        key = rng.randrange(operations)
        value = b"w%d-%d" % (n, rng.randrange(1000)) * rng.randint(1, 4)
        if kind < 0.3:
            tree.insert(key, value)
            put(key, value)
        elif kind < 0.45:
            key = pick()
            tree.insert(key, value)  # an overwrite
            put(key, value)
        elif kind < 0.65:
            if rng.random() < 0.7:
                key = pick()
            assert tree.update(key, value) == (key in live)
            if key in live:
                live[key] = value
        else:
            if rng.random() < 0.8:
                key = pick()
            assert tree.delete(key) == (key in live)
            if key in live:
                drop(key)
        step()
    # ... and a drain to empty in seeded order
    rng.shuffle(keys)
    for key in list(keys):
        assert tree.delete(key)
        drop(key)
        step()
    assert len(tree) == 0 and list(tree.items()) == []
    return (
        fold.hexdigest(),
        tree.hash_invocations,
        tree.bytes_hashed,
        tree.hash_recomputations,
    )


@pytest.mark.parametrize("stream", sorted(PINNED))
def test_hash_work_and_root_hashes_match_the_pinned_stream(stream):
    assert run_stream(*stream) == PINNED[stream]


if __name__ == "__main__":
    for stream in sorted(PINNED):
        print(f"    {stream}: {run_stream(*stream)!r},")
