"""MB-Tree: a Merkle B+-tree verifiable key-value store.

This is the paper's comparative baseline (Section 6.2): an
authenticated index in the style of Li et al.'s Dynamic Authenticated
Index Structures. Every node carries a hash — leaves hash their entry
list, interiors hash their children's hashes — and the root hash is the
commitment the client holds.

Cost profile (the point of the comparison):

* every write recomputes hashes along the root path **while holding a
  global root lock** — writers fully serialize, and readers must not
  observe a half-updated path, so they take the same lock;
* every read produces a proof (sibling hashes along the path) that lets
  the client regenerate the root hash.

In exchange, MB-Tree offers *online* verification: a proof accompanies
each result, no deferred epoch needed.

Keys are arbitrary comparable values; values are bytes.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.merkle import hash_interior, hash_leaf
from repro.errors import ProofError
from repro.index.btree import BPlusTree
from repro.storage.record import RecordCodec

_codec = RecordCodec()


def _entry_hash(key: Any, value: bytes) -> bytes:
    return hash_leaf(_codec.encode((key,)), value)


@dataclass
class PathStep:
    """One interior node on a proof path."""

    keys: tuple
    child_hashes: tuple
    child_index: int


@dataclass
class MBTreeProof:
    """ADS for a point query: the root path plus the full leaf."""

    key: Any
    steps: list[PathStep]  # root first
    leaf_keys: tuple
    leaf_values: tuple

    @property
    def found(self) -> bool:
        return self.key in self.leaf_keys

    @property
    def value(self) -> Optional[bytes]:
        try:
            return self.leaf_values[self.leaf_keys.index(self.key)]
        except ValueError:
            return None


def _with_hash(node_class: type) -> type:
    """``node_class`` plus a ``hash`` slot, unset until first hashed."""
    return type(node_class.__name__, (node_class,), {"__slots__": ("hash",)})


class MBTree(BPlusTree):
    """The Merkle B+-tree store: the index's B+-tree with hashed nodes.

    Splits, leaf removal, root collapse and iteration are
    :class:`~repro.index.btree.BPlusTree`'s; this class adds the root
    lock, the rehash after each write, and the proofs.
    """

    Leaf, Interior = _with_hash(BPlusTree.Leaf), _with_hash(BPlusTree.Interior)

    def __init__(self, order: int = 64):
        #: the global root lock — MHT's concurrency bottleneck
        self.root_lock = threading.Lock()
        self.lock_waits = 0
        #: node-hash recomputations (every write rehashes its root path)
        self.hash_recomputations = 0
        #: individual hash-function invocations (entry + node combines) —
        #: the machine-independent crypto-work metric Figure 11 rests on
        self.hash_invocations = 0
        #: bytes fed to hash functions (same purpose)
        self.bytes_hashed = 0
        super().__init__(order)
        self._rehash(self._root)

    # ------------------------------------------------------------------
    # commitment
    # ------------------------------------------------------------------
    @property
    def root_hash(self) -> bytes:
        return self._root.hash

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: Any) -> tuple[Optional[bytes], MBTreeProof]:
        """Point lookup with an ADS proof (presence or absence)."""
        with self._locked():
            proof = self._proof(key)
            return proof.value, proof

    def range(self, lo: Any, hi: Any) -> tuple[list[tuple[Any, bytes]], list[MBTreeProof]]:
        """Range query: matching entries plus per-leaf proofs.

        The proofs cover the boundary records as in Example 2.1 (the
        leaf containing the predecessor of ``lo`` through the leaf
        containing the successor of ``hi``), letting the client check
        completeness against the root hash.
        """
        results: list[tuple[Any, bytes]] = []
        proofs: list[MBTreeProof] = []
        with self._locked():
            for leaf, i, end in self._spans(lo, hi):
                proofs.append(self._proof(leaf.keys[0] if leaf.keys else None))
                results.extend(zip(leaf.keys[i:end], leaf.values[i:end]))
        return results, proofs

    def _proof(self, key: Any) -> MBTreeProof:
        """The path ``key`` routes along (None: the leftmost), and its leaf."""
        steps: list[PathStep] = []
        node = self._root
        while isinstance(node, self.Interior):
            child_index = 0 if key is None else bisect_right(node.keys, key)
            steps.append(
                PathStep(
                    keys=tuple(node.keys),
                    child_hashes=tuple(c.hash for c in node.children),
                    child_index=child_index,
                )
            )
            node = node.children[child_index]
        return MBTreeProof(
            key=key,
            steps=steps,
            leaf_keys=tuple(node.keys),
            leaf_values=tuple(node.values),
        )

    # ------------------------------------------------------------------
    # writes (each rehashes the root path under the global lock)
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: bytes) -> None:
        with self._locked():
            self._write(self._insert, key, value)

    def update(self, key: Any, value: bytes) -> bool:
        """Overwrite ``key``; returns False (and writes nothing) if absent."""
        with self._locked():
            if key not in self:
                return False
            self._write(self._insert, key, value)
            return True

    def delete(self, key: Any) -> bool:
        with self._locked():
            return self._write(self._delete, key) is not None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self):
        if not self.root_lock.acquire(blocking=False):
            self.lock_waits += 1
            self.root_lock.acquire()
        try:
            yield
        finally:
            self.root_lock.release()

    def _write(self, mutate, *args) -> Optional[list]:
        """Run a :class:`BPlusTree` mutator, then rehash what it changed,
        children before parents: the walked path's nodes still in the
        tree, bottom-up (each after its children a split left unhashed),
        then the root if it is a new one. Returns the mutator's path."""
        root = self._root
        path = mutate(*args)
        for node, _ in reversed(path or ()):
            self._rehash_new(node)
        if self._root is not root:
            self._rehash_new(self._root)
        return path

    def _rehash_new(self, node: Any) -> None:
        """Rehash ``node`` after every child of it that has no hash yet."""
        for child in getattr(node, "children", ()):
            if not hasattr(child, "hash"):
                self._rehash_new(child)
        self._rehash(node)

    def _rehash(self, node) -> None:
        """Recompute one node's hash, accounting the crypto work.

        A leaf rehash digests every entry (key bytes + full value), an
        interior rehash combines its children's digests — the hash
        volume every MHT write pays along the root path.
        """
        self.hash_recomputations += 1
        if isinstance(node, self.Leaf):
            entry_hashes = []
            for key, value in zip(node.keys, node.values):
                encoded = _codec.encode((key,))
                self.hash_invocations += 1
                self.bytes_hashed += len(encoded) + len(value)
                entry_hashes.append(hash_leaf(encoded, value))
            self.hash_invocations += 1
            self.bytes_hashed += 32 * len(entry_hashes)
            node.hash = hash_interior(entry_hashes)
        else:
            self.hash_invocations += 1
            self.bytes_hashed += 32 * len(node.children)
            node.hash = hash_interior(child.hash for child in node.children)


# ----------------------------------------------------------------------
# client-side verification
# ----------------------------------------------------------------------
def verify_range_proof(
    root_hash: bytes,
    proofs: list[MBTreeProof],
    lo: Any,
    hi: Any,
    results: list[tuple],
) -> None:
    """Check a range query's results against the committed root hash.

    This is Example 2.1's verification: the returned leaves must each
    link to the root, be *adjacent* in the tree (no leaf omitted in the
    middle), cover the range boundaries, and contain exactly the
    reported results. Raises :class:`ProofError` on any violation.
    """
    if not proofs:
        raise ProofError("range proof is empty")
    for proof in proofs:
        _verify_leaf_link(root_hash, proof)
    for left, right in zip(proofs, proofs[1:]):
        if not _paths_adjacent(left, right):
            raise ProofError(
                "range proof leaves are not adjacent: a leaf was omitted"
            )
    # boundary coverage: the first leaf must lie at or before `lo`'s
    # search path (if `lo` would route to an *earlier* child anywhere
    # along the path, in-range leaves were skipped), and the last leaf
    # must end past `hi` or be the rightmost leaf
    first = proofs[0]
    for step in first.steps:
        if bisect_right(list(step.keys), lo) < step.child_index:
            raise ProofError("left boundary not covered by the first leaf")
    last = proofs[-1]
    if last.leaf_keys and last.leaf_keys[-1] <= hi:
        for step in last.steps:
            if step.child_index != len(step.child_hashes) - 1:
                raise ProofError(
                    "right boundary not covered: more leaves follow"
                )
    expected = [
        (key, value)
        for proof in proofs
        for key, value in zip(proof.leaf_keys, proof.leaf_values)
        if lo <= key <= hi
    ]
    if expected != list(results):
        raise ProofError("range results do not match the proven leaves")


def _verify_leaf_link(root_hash: bytes, proof: MBTreeProof, key: Any = None) -> None:
    """Rehash the proof's leaf up its path to ``root_hash``; with a
    ``key``, each step must also be the child ``key`` routes to."""
    current = hash_interior(
        _entry_hash(k, v) for k, v in zip(proof.leaf_keys, proof.leaf_values)
    )
    for step in reversed(proof.steps):
        if step.child_index >= len(step.child_hashes):
            raise ProofError("malformed MB-Tree proof: child index out of range")
        if step.child_hashes[step.child_index] != current:
            raise ProofError("MB-Tree proof does not link to the root hash")
        if key is not None and bisect_right(list(step.keys), key) != step.child_index:
            raise ProofError("MB-Tree proof followed the wrong search path")
        current = hash_interior(step.child_hashes)
    if current != root_hash:
        raise ProofError("MB-Tree proof root hash mismatch")


def _paths_adjacent(left: MBTreeProof, right: MBTreeProof) -> bool:
    """Whether ``right``'s leaf immediately follows ``left``'s.

    The paths share the tree above some divergence level; at that level
    the right path takes the next child; below it, the left path must be
    rightmost and the right path leftmost.
    """
    if len(left.steps) != len(right.steps):
        return False  # all leaves sit at the same depth in a B+-tree
    diverged = False
    for step_l, step_r in zip(left.steps, right.steps):
        if not diverged:
            if step_l.child_hashes != step_r.child_hashes:
                return False  # different nodes before any divergence
            if step_l.child_index == step_r.child_index:
                continue
            if step_r.child_index != step_l.child_index + 1:
                return False
            diverged = True
        else:
            if step_l.child_index != len(step_l.child_hashes) - 1:
                return False  # left path not rightmost below divergence
            if step_r.child_index != 0:
                return False  # right path not leftmost below divergence
    return diverged or not left.steps  # single-leaf trees have no steps


def verify_point_proof(root_hash: bytes, proof: MBTreeProof) -> Optional[bytes]:
    """Check a point proof against the committed root hash.

    Returns the proven value (None proves absence); raises
    :class:`ProofError` if the ADS does not regenerate the root hash or
    the search path is inconsistent with the queried key.
    """
    _verify_leaf_link(root_hash, proof, proof.key)
    if list(proof.leaf_keys) != sorted(set(proof.leaf_keys)):
        raise ProofError("MB-Tree leaf entries are not strictly ordered")
    return proof.value
