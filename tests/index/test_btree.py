"""Unit and property tests for the B+-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mbtree import MBTree, _entry_hash
from repro.catalog.types import BOTTOM, TOP
from repro.crypto.merkle import hash_interior
from repro.index.btree import BPlusTree


def build(pairs, order=8):
    tree = BPlusTree(order=order)
    for k, v in pairs:
        tree.insert(k, v)
    return tree


def test_empty_tree():
    tree = BPlusTree()
    assert tree.search(1) is None
    assert tree.search_le(1) is None
    assert tree.search_lt(1) is None
    assert tree.search_ge(1) is None
    assert list(tree.items()) == []
    assert len(tree) == 0
    assert tree.min_key() is None
    assert tree.max_key() is None


def test_insert_search():
    tree = build([(i, f"v{i}") for i in range(100)])
    for i in range(100):
        assert tree.search(i) == f"v{i}"
    assert tree.search(100) is None
    assert len(tree) == 100


def test_insert_overwrites():
    tree = build([(1, "a")])
    tree.insert(1, "b")
    assert tree.search(1) == "b"
    assert len(tree) == 1


def test_ordered_iteration():
    keys = random.Random(0).sample(range(1000), 200)
    tree = build([(k, k) for k in keys])
    assert [k for k, _ in tree.items()] == sorted(keys)


def test_range_iteration():
    tree = build([(i, i) for i in range(0, 100, 2)])
    assert [k for k, _ in tree.items(lo=10, hi=20)] == [10, 12, 14, 16, 18, 20]
    assert [k for k, _ in tree.items(lo=9, hi=13)] == [10, 12]


def test_search_le_lt_ge():
    tree = build([(i, i) for i in range(0, 100, 10)])
    assert tree.search_le(35) == (30, 30)
    assert tree.search_le(30) == (30, 30)
    assert tree.search_lt(30) == (20, 20)
    assert tree.search_ge(31) == (40, 40)
    assert tree.search_ge(30) == (30, 30)
    assert tree.search_le(-1) is None
    assert tree.search_ge(91) is None


def test_delete():
    tree = build([(i, i) for i in range(50)])
    for i in range(0, 50, 2):
        assert tree.delete(i)
    assert not tree.delete(0)
    assert len(tree) == 25
    assert [k for k, _ in tree.items()] == list(range(1, 50, 2))
    tree.check_invariants()


def test_delete_everything():
    tree = build([(i, i) for i in range(200)], order=4)
    order = random.Random(1).sample(range(200), 200)
    for k in order:
        assert tree.delete(k)
    assert len(tree) == 0
    assert list(tree.items()) == []
    tree.check_invariants()
    # tree remains usable
    tree.insert(5, "x")
    assert tree.search(5) == "x"


def test_min_max():
    tree = build([(i, i) for i in (5, 1, 9, 3)])
    assert tree.min_key() == 1
    assert tree.max_key() == 9


def test_sentinel_keys():
    tree = BPlusTree()
    tree.insert(BOTTOM, "sentinel")
    tree.insert(5, "five")
    tree.insert(7, "seven")
    assert tree.search_le(BOTTOM) == (BOTTOM, "sentinel")
    assert tree.search_lt(5) == (BOTTOM, "sentinel")
    assert tree.min_key() is BOTTOM


def test_composite_tuple_keys():
    tree = BPlusTree()
    tree.insert(BOTTOM, "s")
    for value, pk in [(10, 1), (10, 2), (20, 1)]:
        tree.insert((value, pk), (value, pk))
    assert tree.search_le((10, TOP)) == ((10, 2), (10, 2))
    assert tree.search_le((10, BOTTOM)) == (BOTTOM, "s")
    assert tree.search_ge((10, BOTTOM)) == ((10, 1), (10, 1))


def test_order_validation():
    with pytest.raises(ValueError):
        BPlusTree(order=2)


def test_contains():
    tree = build([(1, "a")])
    assert 1 in tree
    assert 2 not in tree


@settings(max_examples=50)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(min_value=0, max_value=300),
        ),
        max_size=400,
    )
)
def test_matches_dict_model(ops):
    """The tree behaves exactly like a sorted dict under random ops."""
    tree = BPlusTree(order=4)
    model: dict[int, int] = {}
    for op, key in ops:
        if op == "insert":
            tree.insert(key, key * 2)
            model[key] = key * 2
        else:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
    assert list(tree.items()) == sorted(model.items())
    tree.check_invariants()
    for probe in range(0, 301, 7):
        expected_le = max((k for k in model if k <= probe), default=None)
        got = tree.search_le(probe)
        assert (got[0] if got else None) == expected_le
        expected_ge = min((k for k in model if k >= probe), default=None)
        got = tree.search_ge(probe)
        assert (got[0] if got else None) == expected_ge


@settings(max_examples=50)
@given(
    keys=st.sets(st.integers(min_value=0, max_value=300), max_size=300),
    deleted=st.sets(st.integers(min_value=0, max_value=300), max_size=100),
    bounds=st.lists(
        st.tuples(
            st.none() | st.integers(min_value=-5, max_value=305),
            st.none() | st.integers(min_value=-5, max_value=305),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_count_is_the_length_of_items(keys, deleted, bounds):
    """``count(lo, hi)`` walks the same leaves as ``items(lo, hi)``,
    across splits, emptied leaves and empty or inverted ranges."""
    tree = build([(k, k) for k in sorted(keys)], order=4)
    for key in deleted:
        tree.delete(key)
    for lo, hi in bounds:
        assert tree.count(lo, hi) == len(list(tree.items(lo, hi)))
    assert tree.count() == len(tree)


def test_count_over_sentinel_bounded_composite_keys():
    """A secondary chain's index: ``(value, pk)`` keys under ⊥, counted
    between the ``(value, ⊥)`` / ``(value, ⊤)`` bounds a scan covers."""
    tree = build([(BOTTOM, None)] + [((v % 10, v), v) for v in range(100)], order=4)
    assert tree.count((3, BOTTOM), (3, TOP)) == 10
    assert tree.count((3, TOP), (5, BOTTOM)) == 10  # (3, 5) exclusive
    assert tree.count(BOTTOM, TOP) == 101  # the sentinel counts


def _full_hash(node) -> bytes:
    """An MB-Tree node's hash recomputed from its entries, ignoring every
    cached ``hash`` below it."""
    if hasattr(node, "children"):
        return hash_interior(_full_hash(child) for child in node.children)
    return hash_interior(_entry_hash(k, v) for k, v in zip(node.keys, node.values))


@pytest.mark.parametrize("tree_class", [BPlusTree, MBTree])
@pytest.mark.parametrize("order", [4, 8])
def test_random_drains_to_empty(tree_class, order):
    """Draining a multi-level tree collapses its root more than once;
    a collapse can leave a one-child interior as the root, whose last
    child then empties, so the tree falls back to a fresh empty leaf.
    The invariants (and an MB-Tree's root hash) hold throughout."""
    fallbacks = 0
    for seed in range(10):
        rng = random.Random(seed)
        keys = list(range(400))
        rng.shuffle(keys)
        tree = tree_class(order=order)
        for key in keys:
            tree.insert(key, b"v%d" % key)
        assert isinstance(tree._root, BPlusTree.Interior)
        rng.shuffle(keys)
        for n, key in enumerate(keys):
            root = tree._root
            assert tree.delete(key)
            # only the fallback empties a tree whose root is an interior
            fallbacks += isinstance(root, BPlusTree.Interior) and not len(tree)
            if tree._root is root and n % 16:
                continue  # a full check on every root change, else sampled
            tree.check_invariants()
            if tree_class is MBTree:
                assert tree.root_hash == _full_hash(tree._root)
        assert isinstance(tree._root, BPlusTree.Leaf)
        assert tree._root.keys == [] and len(tree) == 0
        assert list(tree.items()) == []
    assert fallbacks == 10
