"""An in-memory B+-tree.

Maps ordered keys to opaque values (the storage layer stores record ids).
Keys must be mutually comparable; the storage layer uses ints, strings,
the :data:`~repro.catalog.types.BOTTOM` / :data:`~repro.catalog.types.TOP`
sentinels, and tuples thereof (composite keys for secondary chains).

Supported operations: exact search, predecessor search (``search_le`` /
``search_lt``), ordered iteration, range counts, insert, delete. Leaves
are doubly linked for ordered and predecessor traversal. Deletion removes
emptied leaves from the tree and the leaf chain (no borrow/merge rebalancing:
nodes never become *empty*, so all search invariants hold; the tree can
merely become shallower-than-optimal after massive deletion, which is an
accepted trade-off also made by several production systems).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator

DEFAULT_ORDER = 64


class _Leaf:
    __slots__ = ("keys", "values", "next", "prev")

    def __init__(self):
        self.keys: list[Any] = []
        self.values: list[Any] = []
        self.next: _Leaf | None = None
        self.prev: _Leaf | None = None


class _Interior:
    __slots__ = ("keys", "children")

    def __init__(self):
        # children[i] covers keys < keys[i]; children[-1] covers the rest
        self.keys: list[Any] = []
        self.children: list[Any] = []


class BPlusTree:
    """B+-tree with ordered access and predecessor queries."""

    Leaf, Interior = _Leaf, _Interior  # what it builds; subclasses extend

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 4:
            raise ValueError("order must be at least 4")
        self._order = order
        self._root: _Leaf | _Interior = self.Leaf()
        self._size = 0

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def search(self, key: Any) -> Any | None:
        """Return the value stored under ``key``, or None."""
        leaf = self._find_leaf(key)
        i = bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            return leaf.values[i]
        return None

    def __contains__(self, key: Any) -> bool:
        return self.search(key) is not None

    def search_le(self, key: Any) -> tuple[Any, Any] | None:
        """Largest (key', value) with ``key' <= key``, or None."""
        leaf = self._find_leaf(key)
        i = bisect_right(leaf.keys, key) - 1
        while i < 0:
            leaf = leaf.prev
            if leaf is None:
                return None
            i = len(leaf.keys) - 1
        return leaf.keys[i], leaf.values[i]

    def search_lt(self, key: Any) -> tuple[Any, Any] | None:
        """Largest (key', value) with ``key' < key``, or None."""
        leaf = self._find_leaf(key)
        i = bisect_left(leaf.keys, key) - 1
        while i < 0:
            leaf = leaf.prev
            if leaf is None:
                return None
            i = len(leaf.keys) - 1
        return leaf.keys[i], leaf.values[i]

    def search_ge(self, key: Any) -> tuple[Any, Any] | None:
        """Smallest (key', value) with ``key' >= key``, or None."""
        leaf = self._find_leaf(key)
        i = bisect_left(leaf.keys, key)
        while i >= len(leaf.keys):
            leaf = leaf.next
            if leaf is None:
                return None
            i = 0
        return leaf.keys[i], leaf.values[i]

    def items(self, lo: Any = None, hi: Any = None) -> Iterator[tuple[Any, Any]]:
        """Iterate (key, value) pairs with ``lo <= key <= hi`` in order."""
        for leaf, i, end in self._spans(lo, hi):
            yield from zip(leaf.keys[i:end], leaf.values[i:end])

    def count(self, lo: Any = None, hi: Any = None) -> int:
        """Number of keys with ``lo <= key <= hi``; builds no pair."""
        return sum(end - i for _leaf, i, end in self._spans(lo, hi))

    def _spans(self, lo: Any, hi: Any) -> Iterator[tuple[_Leaf, int, int]]:
        """Per leaf in order, the slice ``[i, end)`` of its keys within
        ``lo <= key <= hi``: a bisect in the first and last leaf."""
        if lo is None:
            leaf = self._leftmost_leaf()
            i = 0
        else:
            leaf = self._find_leaf(lo)
            i = bisect_left(leaf.keys, lo)
        while leaf is not None:
            # a leaf at a time: up to its first key past ``hi``
            keys = leaf.keys
            end = len(keys) if hi is None else bisect_right(keys, hi, i)
            yield leaf, i, end
            if end < len(keys):
                return
            leaf = leaf.next
            i = 0

    def keys(self) -> Iterator[Any]:
        for key, _ in self.items():
            yield key

    def __len__(self) -> int:
        return self._size

    def min_key(self) -> Any | None:
        leaf = self._leftmost_leaf()
        return leaf.keys[0] if leaf.keys else None

    def max_key(self) -> Any | None:
        node = self._root
        while isinstance(node, _Interior):
            node = node.children[-1]
        return node.keys[-1] if node.keys else None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key``."""
        self._insert(key, value)

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns False if it was absent."""
        return self._delete(key) is not None

    def _insert(self, key: Any, value: Any) -> list[tuple[Any, int]]:
        """:meth:`insert`, returning the root-to-leaf path it walked."""
        path = self._path_to_leaf(key)
        leaf = path[-1][0]
        i = bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            leaf.values[i] = value
            return path
        leaf.keys.insert(i, key)
        leaf.values.insert(i, value)
        self._size += 1
        if len(leaf.keys) > self._order:
            self._split(path)
        return path

    def _delete(self, key: Any) -> list[tuple[Any, int]] | None:
        """:meth:`delete`, returning the walked path cut as it is unlinked."""
        path = self._path_to_leaf(key)
        leaf = path[-1][0]
        i = bisect_left(leaf.keys, key)
        if i >= len(leaf.keys) or leaf.keys[i] != key:
            return None
        leaf.keys.pop(i)
        leaf.values.pop(i)
        self._size -= 1
        if not leaf.keys:
            self._remove_empty_leaf(path)
        return path

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Interior):
            node = node.children[bisect_right(node.keys, key)]
        return node

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Interior):
            node = node.children[0]
        return node

    def _path_to_leaf(self, key: Any) -> list[tuple[Any, int]]:
        """Root-to-leaf path as (node, child-index-taken-in-parent)."""
        path: list[tuple[Any, int]] = []
        node = self._root
        index_in_parent = -1
        while True:
            path.append((node, index_in_parent))
            if isinstance(node, _Leaf):
                return path
            index_in_parent = bisect_right(node.keys, key)
            node = node.children[index_in_parent]

    def _split(self, path: list[tuple[Any, int]]) -> None:
        node, _ = path[-1]
        level = len(path) - 1
        while len(node.keys) > self._order:
            mid = len(node.keys) // 2
            if isinstance(node, _Leaf):
                right = self.Leaf()
                right.keys = node.keys[mid:]
                right.values = node.values[mid:]
                node.keys = node.keys[:mid]
                node.values = node.values[:mid]
                right.next = node.next
                right.prev = node
                if node.next is not None:
                    node.next.prev = right
                node.next = right
                separator = right.keys[0]
            else:
                right = self.Interior()
                separator = node.keys[mid]
                right.keys = node.keys[mid + 1 :]
                right.children = node.children[mid + 1 :]
                node.keys = node.keys[:mid]
                node.children = node.children[: mid + 1]
            if level == 0:
                new_root = self.Interior()
                new_root.keys = [separator]
                new_root.children = [node, right]
                self._root = new_root
                return
            parent, _ = path[level - 1]
            child_index = path[level][1]
            parent.keys.insert(child_index, separator)
            parent.children.insert(child_index + 1, right)
            node = parent
            level -= 1

    def _remove_empty_leaf(self, path: list[tuple[Any, int]]) -> None:
        leaf: _Leaf = path[-1][0]
        if leaf is self._root:
            return  # an empty tree keeps its (empty) root leaf
        # unlink from the leaf chain
        if leaf.prev is not None:
            leaf.prev.next = leaf.next
        if leaf.next is not None:
            leaf.next.prev = leaf.prev
        # remove from the parent, cascading upward through emptied interiors
        level = len(path) - 1
        while level > 0:
            parent: _Interior = path[level - 1][0]
            child_index = path[level][1]
            parent.children.pop(child_index)
            if parent.keys:
                parent.keys.pop(max(0, child_index - 1))
            if parent.children:
                if len(parent.children) == 1 and parent is self._root:
                    self._root = parent.children[0]
                    level = 0
                break
            level -= 1
        else:  # the root lost its last child: collapses leave 1-child roots
            self._root = self.Leaf()
        del path[level:]  # what is left of the path is still in the tree

    # ------------------------------------------------------------------
    # validation (used by property-based tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert structural invariants; raises AssertionError on breakage."""
        leaves: list[_Leaf] = []

        def walk(node, lo, hi):
            if isinstance(node, _Leaf):
                assert node.keys == sorted(node.keys)
                for key in node.keys:
                    assert lo is None or key >= lo
                    assert hi is None or key < hi
                leaves.append(node)
                return
            assert node.keys == sorted(node.keys)
            assert len(node.children) == len(node.keys) + 1
            bounds = [lo] + list(node.keys) + [hi]
            for i, child in enumerate(node.children):
                walk(child, bounds[i], bounds[i + 1])

        walk(self._root, None, None)
        # leaf chain consistent with in-order traversal
        chained = []
        leaf = self._leftmost_leaf()
        prev = None
        while leaf is not None:
            assert leaf.prev is prev
            chained.append(leaf)
            prev = leaf
            leaf = leaf.next
        assert chained == leaves
        assert sum(len(l.keys) for l in leaves) == self._size
