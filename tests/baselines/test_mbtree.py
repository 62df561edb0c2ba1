"""Unit tests for the MB-Tree baseline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mbtree import MBTree, verify_point_proof
from repro.errors import ProofError


def build(n=100, order=8):
    tree = MBTree(order=order)
    for i in range(n):
        tree.insert(i, f"value-{i}".encode())
    return tree


def test_get_present_with_valid_proof():
    tree = build()
    value, proof = tree.get(42)
    assert value == b"value-42"
    assert verify_point_proof(tree.root_hash, proof) == b"value-42"


def test_get_absent_with_valid_proof():
    tree = build()
    value, proof = tree.get(1000)
    assert value is None
    assert verify_point_proof(tree.root_hash, proof) is None


def test_proof_fails_against_stale_root():
    tree = build()
    _, proof = tree.get(42)
    tree.update(42, b"changed")  # root hash moves
    with pytest.raises(ProofError):
        verify_point_proof(tree.root_hash, proof)


def test_tampered_proof_value_detected():
    tree = build()
    _, proof = tree.get(42)
    index = proof.leaf_keys.index(42)
    values = list(proof.leaf_values)
    values[index] = b"forged"
    proof.leaf_values = tuple(values)
    with pytest.raises(ProofError):
        verify_point_proof(tree.root_hash, proof)


def test_omitted_leaf_entry_detected():
    tree = build()
    _, proof = tree.get(42)
    index = proof.leaf_keys.index(42)
    proof.leaf_keys = proof.leaf_keys[:index] + proof.leaf_keys[index + 1 :]
    proof.leaf_values = proof.leaf_values[:index] + proof.leaf_values[index + 1 :]
    with pytest.raises(ProofError):
        verify_point_proof(tree.root_hash, proof)


def test_wrong_path_detected():
    tree = build()
    _, proof_a = tree.get(5)
    _, proof_b = tree.get(95)
    # graft a's leaf onto b's path
    proof_b.leaf_keys = proof_a.leaf_keys
    proof_b.leaf_values = proof_a.leaf_values
    with pytest.raises(ProofError):
        verify_point_proof(tree.root_hash, proof_b)


def test_every_write_changes_root():
    tree = build(10)
    r0 = tree.root_hash
    tree.insert(100, b"x")
    r1 = tree.root_hash
    tree.update(100, b"y")
    r2 = tree.root_hash
    tree.delete(100)
    r3 = tree.root_hash
    assert len({r0, r1, r2}) == 3
    # deleting the inserted key restores the identical content, so the
    # Merkle commitment returns to its original value — determinism
    assert r3 == r0


def test_delete_and_absence():
    tree = build(50)
    assert tree.delete(25)
    assert not tree.delete(25)
    value, proof = tree.get(25)
    assert value is None
    assert verify_point_proof(tree.root_hash, proof) is None
    assert len(tree) == 49


def test_range_query_with_boundary_proofs():
    tree = build(100, order=8)
    results, proofs = tree.range(20, 30)
    assert [k for k, _ in results] == list(range(20, 31))
    assert proofs
    for proof in proofs:
        verify_point_proof(tree.root_hash, proof)


def test_range_empty_tree():
    tree = MBTree()
    results, proofs = tree.range(1, 5)
    assert results == []


def test_items_ordered_after_churn():
    tree = MBTree(order=4)
    rng = random.Random(7)
    keys = rng.sample(range(500), 200)
    for k in keys:
        tree.insert(k, str(k).encode())
    for k in keys[:100]:
        tree.delete(k)
    remaining = sorted(keys[100:])
    assert [k for k, _ in tree.items()] == remaining


def test_hash_work_counted():
    tree = build(100)
    before = tree.hash_recomputations
    tree.update(1, b"new")
    assert tree.hash_recomputations > before


@settings(max_examples=25)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "update"]),
            st.integers(min_value=0, max_value=60),
        ),
        max_size=120,
    )
)
def test_proofs_always_verify_against_current_root(ops):
    tree = MBTree(order=4)
    model = {}
    for op, key in ops:
        if op == "insert":
            tree.insert(key, b"v%d" % key)
            model[key] = b"v%d" % key
        elif op == "update":
            updated = tree.update(key, b"u%d" % key)
            assert updated == (key in model)
            if updated:
                model[key] = b"u%d" % key
        else:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
    for probe in range(0, 61, 5):
        value, proof = tree.get(probe)
        assert value == model.get(probe)
        assert verify_point_proof(tree.root_hash, proof) == model.get(probe)
