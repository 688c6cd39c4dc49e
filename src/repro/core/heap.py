"""Priority queues used by the path searches.

Two structures are provided:

* :class:`AddressableBinaryHeap` -- a binary min-heap with decrease-key,
  addressing items by an integer id.  Global routing graphs have
  ``m = O(n)`` edges, so binary heaps are the right trade-off (paper
  Section III-B); Fibonacci heaps only matter for the asymptotic statement.
* :class:`TwoLevelHeap` -- the two-level structure of Section III-B: one
  sub-heap per active sink plus a top-level heap over the sub-heap minima.
  A push touches the top heap only when it lowers its sub-heap's minimum;
  every extraction pops the extracted search's top entry and pushes it back
  under the sub-heap's new minimum.  That pop-then-push, the ``<=`` at which
  sift-up stops and the left child sift-down prefers on ties decide in which
  order equal keys leave the heap -- on a uniform-price grid most keys of a
  wavefront are equal, so this order is part of the router's determinism
  contract (DESIGN.md, "The pop-order contract").
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, Tuple, TypeVar

__all__ = ["AddressableBinaryHeap", "TwoLevelHeap"]

K = TypeVar("K", bound=Hashable)

_INF = float("inf")


class AddressableBinaryHeap(Generic[K]):
    """Binary min-heap with decrease-key, keyed by arbitrary hashable ids."""

    def __init__(self) -> None:
        self._keys: List[float] = []
        self._items: List[K] = []
        self._position: Dict[K, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, item: K) -> bool:
        return item in self._position

    def key_of(self, item: K) -> float:
        """Current key of ``item`` (raises ``KeyError`` if absent)."""
        return self._keys[self._position[item]]

    def peek(self) -> Tuple[float, K]:
        """The minimum (key, item) without removing it."""
        if not self._items:
            raise IndexError("peek from an empty heap")
        return self._keys[0], self._items[0]

    def min_key(self) -> float:
        """The minimum key, ``inf`` if the heap is empty."""
        return self._keys[0] if self._items else float("inf")

    def push(self, item: K, key: float) -> bool:
        """Insert ``item`` or decrease its key.

        Returns ``True`` if the item was inserted or its key decreased,
        ``False`` if the existing key was already smaller or equal.
        """
        return self.insert_or_decrease(item, key) != 0

    def insert_or_decrease(self, item: K, key: float) -> int:
        """Like :meth:`push` but reports what happened: ``2`` inserted,
        ``1`` decreased, ``0`` left unchanged.  One hash lookup instead of
        the separate membership test callers would otherwise need -- this
        sits on the hottest path of every search."""
        pos = self._position.get(item)
        if pos is None:
            self._keys.append(key)
            self._items.append(item)
            self._position[item] = len(self._items) - 1
            self._sift_up(len(self._items) - 1)
            return 2
        if key < self._keys[pos]:
            self._keys[pos] = key
            self._sift_up(pos)
            return 1
        return 0

    def pop(self) -> Tuple[float, K]:
        """Remove and return the minimum (key, item)."""
        if not self._items:
            raise IndexError("pop from an empty heap")
        min_key = self._keys[0]
        min_item = self._items[0]
        last_key = self._keys.pop()
        last_item = self._items.pop()
        del self._position[min_item]
        if self._items:
            self._keys[0] = last_key
            self._items[0] = last_item
            self._position[last_item] = 0
            self._sift_down(0)
        return min_key, min_item

    def remove(self, item: K) -> None:
        """Remove ``item`` from the heap if present."""
        pos = self._position.get(item)
        if pos is None:
            return
        last_index = len(self._items) - 1
        last_key = self._keys.pop()
        last_item = self._items.pop()
        del self._position[item]
        if pos != last_index:
            self._keys[pos] = last_key
            self._items[pos] = last_item
            self._position[last_item] = pos
            self._sift_down(pos)
            self._sift_up(pos)

    # ----------------------------------------------------------- internals
    def _sift_up(self, pos: int) -> None:
        key = self._keys[pos]
        item = self._items[pos]
        while pos > 0:
            parent = (pos - 1) >> 1
            if self._keys[parent] <= key:
                break
            self._keys[pos] = self._keys[parent]
            self._items[pos] = self._items[parent]
            self._position[self._items[pos]] = pos
            pos = parent
        self._keys[pos] = key
        self._items[pos] = item
        self._position[item] = pos

    def _sift_down(self, pos: int) -> None:
        size = len(self._items)
        key = self._keys[pos]
        item = self._items[pos]
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            right = child + 1
            if right < size and self._keys[right] < self._keys[child]:
                child = right
            if self._keys[child] >= key:
                break
            self._keys[pos] = self._keys[child]
            self._items[pos] = self._items[child]
            self._position[self._items[pos]] = pos
            pos = child
        self._keys[pos] = key
        self._items[pos] = item
        self._position[item] = pos


def _fill_hole(
    keys: List[float], items: list, position: dict, hole: int, key: float, item: Hashable
) -> None:
    """Put ``(key, item)`` -- the former last entry of a heap given as its
    three parallel structures -- into the vacated slot ``hole``: sift down,
    then up, with :class:`AddressableBinaryHeap`'s loops.  Removal runs once
    per merge, so unlike ``push`` and ``pop`` it can afford the call."""
    size = len(keys)
    pos = hole
    child = 2 * pos + 1
    while child < size:
        child_key = keys[child]
        right = child + 1
        if right < size and keys[right] < child_key:
            child = right
            child_key = keys[right]
        if child_key >= key:
            break
        keys[pos] = child_key
        moved = items[pos] = items[child]
        position[moved] = pos
        pos = child
        child = 2 * pos + 1
    if pos == hole:
        while pos > 0:
            parent = (pos - 1) >> 1
            parent_key = keys[parent]
            if parent_key <= key:
                break
            keys[pos] = parent_key
            moved = items[pos] = items[parent]
            position[moved] = pos
            pos = parent
    keys[pos] = key
    items[pos] = item
    position[item] = pos


class TwoLevelHeap(Generic[K]):
    """One sub-heap per search plus a top-level heap over sub-heap minima.

    Items are addressed by ``(search_id, item)`` (Section III-B of the
    paper).  Every heap -- each sub-heap and the top heap -- is a plain
    ``keys`` / ``items`` list pair plus an ``item -> index`` dict, and every
    sift loop is written out where it is used: a ``push`` or ``pop`` is one
    Python call.  The loops are the ones of :class:`AddressableBinaryHeap`
    (sift-up stops at ``<=``, sift-down prefers the left child on ties),
    applied in the same order (an extraction pops the top entry and pushes
    the sub-heap's new minimum back), so the array layouts -- and with them
    the order in which equal keys leave the heap -- are those of a
    composition of ``AddressableBinaryHeap`` objects, operation for
    operation.  ``tests/test_heap.py`` holds that composition as the
    executable specification.

    Invariant between calls: the top heap holds exactly the searches with a
    non-empty sub-heap, each keyed by its sub-heap's minimum.
    """

    __slots__ = ("_subs", "_top_keys", "_top_items", "_top_pos", "_size")

    def __init__(self) -> None:
        #: search id -> (keys, items, position) of its sub-heap.
        self._subs: Dict[Hashable, Tuple[List[float], List[K], Dict[K, int]]] = {}
        self._top_keys: List[float] = []
        self._top_items: List[Hashable] = []
        self._top_pos: Dict[Hashable, int] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def add_search(self, search_id: Hashable) -> None:
        """Register a (possibly empty) sub-heap for ``search_id``."""
        if search_id not in self._subs:
            self._subs[search_id] = ([], [], {})

    def remove_search(self, search_id: Hashable) -> None:
        """Drop a search and all of its queued items."""
        sub = self._subs.pop(search_id, None)
        if sub is None:
            return
        self._size -= len(sub[0])
        hole = self._top_pos.pop(search_id, None)
        if hole is None:
            return
        key = self._top_keys.pop()
        item = self._top_items.pop()
        if hole < len(self._top_keys):
            _fill_hole(self._top_keys, self._top_items, self._top_pos, hole, key, item)

    def push(self, search_id: Hashable, item: K, key: float) -> bool:
        """Insert or decrease-key ``item`` in the sub-heap of ``search_id``.

        Returns ``False`` when the item is already queued with a key that is
        smaller or equal.
        """
        sub = self._subs.get(search_id)
        if sub is None:
            sub = self._subs[search_id] = ([], [], {})
        keys, items, position = sub
        old_min = keys[0] if keys else _INF
        pos = position.get(item)
        if pos is None:
            pos = len(keys)
            keys.append(key)
            items.append(item)
            self._size += 1
        elif key >= keys[pos]:
            return False
        while pos > 0:
            parent = (pos - 1) >> 1
            parent_key = keys[parent]
            if parent_key <= key:
                break
            keys[pos] = parent_key
            moved = items[pos] = items[parent]
            position[moved] = pos
            pos = parent
        keys[pos] = key
        items[pos] = item
        position[item] = pos
        if key < old_min:
            # The sub-heap minimum dropped: insert or decrease the search's
            # top entry.
            keys = self._top_keys
            items = self._top_items
            position = self._top_pos
            pos = position.get(search_id)
            if pos is None:
                pos = len(keys)
                keys.append(key)
                items.append(search_id)
            while pos > 0:
                parent = (pos - 1) >> 1
                parent_key = keys[parent]
                if parent_key <= key:
                    break
                keys[pos] = parent_key
                moved = items[pos] = items[parent]
                position[moved] = pos
                pos = parent
            keys[pos] = key
            items[pos] = search_id
            position[search_id] = pos
        return True

    def pop(self) -> Tuple[float, Hashable, K]:
        """Remove and return the globally minimal ``(key, search_id, item)``."""
        if self._size == 0:
            raise IndexError("pop from an empty two-level heap")
        self._size -= 1
        top_keys = self._top_keys
        top_items = self._top_items
        top_pos = self._top_pos
        search_id = top_items[0]
        keys, items, position = self._subs[search_id]

        # Extract the sub-heap minimum.
        min_key = keys[0]
        min_item = items[0]
        key = keys.pop()
        item = items.pop()
        del position[min_item]
        size = len(keys)
        if size:
            pos = 0
            child = 1
            while child < size:
                child_key = keys[child]
                right = child + 1
                if right < size and keys[right] < child_key:
                    child = right
                    child_key = keys[right]
                if child_key >= key:
                    break
                keys[pos] = child_key
                moved = items[pos] = items[child]
                position[moved] = pos
                pos = child
                child = 2 * pos + 1
            keys[pos] = key
            items[pos] = item
            position[item] = pos
            new_min = keys[0]

        # Pop the search's top entry (the top heap's root) ...
        key = top_keys.pop()
        item = top_items.pop()
        del top_pos[search_id]
        top_size = len(top_keys)
        if top_size:
            pos = 0
            child = 1
            while child < top_size:
                child_key = top_keys[child]
                right = child + 1
                if right < top_size and top_keys[right] < child_key:
                    child = right
                    child_key = top_keys[right]
                if child_key >= key:
                    break
                top_keys[pos] = child_key
                moved = top_items[pos] = top_items[child]
                top_pos[moved] = pos
                pos = child
                child = 2 * pos + 1
            top_keys[pos] = key
            top_items[pos] = item
            top_pos[item] = pos

        # ... and push it back under the sub-heap's new minimum.  The
        # pop-then-push (instead of a replace-root) is part of the pinned
        # tie order: it decides where equal top keys sit.
        if size:
            pos = top_size
            top_keys.append(new_min)
            top_items.append(search_id)
            while pos > 0:
                parent = (pos - 1) >> 1
                parent_key = top_keys[parent]
                if parent_key <= new_min:
                    break
                top_keys[pos] = parent_key
                moved = top_items[pos] = top_items[parent]
                top_pos[moved] = pos
                pos = parent
            top_keys[pos] = new_min
            top_items[pos] = search_id
            top_pos[search_id] = pos
        return min_key, search_id, min_item

    def min_key(self) -> float:
        """The globally minimal key, ``inf`` when empty."""
        return self._top_keys[0] if self._top_keys else _INF
