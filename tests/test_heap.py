"""Tests for the addressable and two-level heaps."""

import random
from typing import Dict, Generic, Hashable, Tuple, TypeVar

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.heap import AddressableBinaryHeap, TwoLevelHeap

from benchmarks.ledger.micro import heap_sequence

K = TypeVar("K", bound=Hashable)


class TestAddressableBinaryHeap:
    def test_empty_behaviour(self):
        heap = AddressableBinaryHeap()
        assert len(heap) == 0
        assert not heap
        assert heap.min_key() == float("inf")
        with pytest.raises(IndexError):
            heap.pop()
        with pytest.raises(IndexError):
            heap.peek()

    def test_push_pop_order(self):
        heap = AddressableBinaryHeap()
        for item, key in [("a", 3.0), ("b", 1.0), ("c", 2.0)]:
            heap.push(item, key)
        assert heap.pop() == (1.0, "b")
        assert heap.pop() == (2.0, "c")
        assert heap.pop() == (3.0, "a")

    def test_decrease_key(self):
        heap = AddressableBinaryHeap()
        heap.push("x", 10.0)
        assert heap.push("x", 4.0) is True
        assert heap.key_of("x") == 4.0
        assert len(heap) == 1
        assert heap.pop() == (4.0, "x")

    def test_increase_key_ignored(self):
        heap = AddressableBinaryHeap()
        heap.push("x", 4.0)
        assert heap.push("x", 10.0) is False
        assert heap.key_of("x") == 4.0

    def test_contains_and_remove(self):
        heap = AddressableBinaryHeap()
        heap.push(1, 1.0)
        heap.push(2, 2.0)
        assert 1 in heap
        heap.remove(1)
        assert 1 not in heap
        assert heap.pop() == (2.0, 2)
        heap.remove(42)  # removing a missing item is a no-op

    def test_peek_does_not_remove(self):
        heap = AddressableBinaryHeap()
        heap.push("a", 5.0)
        assert heap.peek() == (5.0, "a")
        assert len(heap) == 1

    @given(st.lists(st.tuples(st.integers(0, 50), st.floats(0, 100)), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_heap(self, operations):
        """Pushing with decrease-key then draining yields sorted unique items
        with their minimum keys."""
        heap = AddressableBinaryHeap()
        best = {}
        for item, key in operations:
            heap.push(item, key)
            if item not in best or key < best[item]:
                best[item] = key
        drained = []
        while heap:
            drained.append(heap.pop())
        assert sorted(k for k, _ in drained) == [k for k, _ in drained]
        assert {item: key for key, item in drained} == pytest.approx(best)

    def test_random_stress_against_heapq(self):
        rng = random.Random(7)
        heap = AddressableBinaryHeap()
        alive = {}
        for step in range(500):
            op = rng.random()
            if op < 0.6:
                item = rng.randrange(100)
                key = rng.uniform(0, 100)
                heap.push(item, key)
                if item not in alive or key < alive[item]:
                    alive[item] = key
            elif heap:
                key, item = heap.pop()
                assert key == pytest.approx(min(alive.values()))
                assert alive[item] == pytest.approx(key)
                del alive[item]
        while heap:
            key, item = heap.pop()
            assert alive.pop(item) == pytest.approx(key)
        assert not alive


class TestTwoLevelHeap:
    def test_empty(self):
        heap = TwoLevelHeap()
        assert not heap
        assert heap.min_key() == float("inf")
        with pytest.raises(IndexError):
            heap.pop()

    def test_global_extraction_order(self):
        heap = TwoLevelHeap()
        heap.push("s1", "a", 5.0)
        heap.push("s2", "b", 3.0)
        heap.push("s1", "c", 1.0)
        heap.push("s3", "d", 4.0)
        order = [heap.pop() for _ in range(4)]
        assert [key for key, _, _ in order] == [1.0, 3.0, 4.0, 5.0]
        assert order[0][1:] == ("s1", "c")

    def test_decrease_key_within_search(self):
        heap = TwoLevelHeap()
        heap.push("s", "x", 9.0)
        heap.push("s", "x", 2.0)
        assert len(heap) == 1
        assert heap.pop() == (2.0, "s", "x")

    def test_remove_search_drops_items(self):
        heap = TwoLevelHeap()
        heap.push("s1", "a", 1.0)
        heap.push("s2", "b", 2.0)
        heap.remove_search("s1")
        assert len(heap) == 1
        assert heap.pop() == (2.0, "s2", "b")

    def test_min_key_tracks_minimum(self):
        heap = TwoLevelHeap()
        heap.push("a", 1, 7.0)
        assert heap.min_key() == 7.0
        heap.push("b", 2, 3.0)
        assert heap.min_key() == 3.0
        heap.pop()
        assert heap.min_key() == 7.0

    def test_add_and_remove_unknown_search(self):
        heap = TwoLevelHeap()
        heap.add_search("s")
        heap.remove_search("unknown")
        assert not heap

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 30), st.floats(0, 100)),
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_extraction_matches_flat_heap(self, operations):
        """The two-level heap yields globally non-decreasing keys matching a
        flat decrease-key heap over (search, item) pairs."""
        two_level = TwoLevelHeap()
        flat = AddressableBinaryHeap()
        for search, item, key in operations:
            two_level.push(search, item, key)
            flat.push((search, item), key)
        keys_two_level = []
        while two_level:
            key, _, _ = two_level.pop()
            keys_two_level.append(key)
        keys_flat = []
        while flat:
            key, _ = flat.pop()
            keys_flat.append(key)
        assert keys_two_level == pytest.approx(keys_flat)


class _ComposedTwoLevel(Generic[K]):
    """The two-level heap as it stood before the inlined rewrite, verbatim:
    sub-heaps and top heap are :class:`AddressableBinaryHeap` objects.

    This composition is the executable specification of the pop order
    (DESIGN.md, "The pop-order contract"): ``TwoLevelHeap`` must return the
    same ``(key, search, item)`` sequence, ties included.
    """

    def __init__(self) -> None:
        self._subheaps: Dict[Hashable, AddressableBinaryHeap[K]] = {}
        self._top: AddressableBinaryHeap[Hashable] = AddressableBinaryHeap()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def add_search(self, search_id: Hashable) -> None:
        """Register a (possibly empty) sub-heap for ``search_id``."""
        if search_id not in self._subheaps:
            self._subheaps[search_id] = AddressableBinaryHeap()

    def remove_search(self, search_id: Hashable) -> None:
        """Drop a search and all of its queued items."""
        sub = self._subheaps.pop(search_id, None)
        if sub is not None:
            self._size -= len(sub)
            self._top.remove(search_id)

    def push(self, search_id: Hashable, item: K, key: float) -> bool:
        """Insert or decrease-key ``item`` in the sub-heap of ``search_id``."""
        sub = self._subheaps.get(search_id)
        if sub is None:
            sub = self._subheaps[search_id] = AddressableBinaryHeap()
        old_min = sub.min_key()
        outcome = sub.insert_or_decrease(item, key)
        if outcome == 0:
            return False
        if outcome == 2:
            self._size += 1
        # The top-level entry tracks the sub-heap minimum; it only moves
        # when this push actually lowered that minimum.
        if key < old_min:
            self._top.push(search_id, key)
        return True

    def pop(self) -> Tuple[float, Hashable, K]:
        """Remove and return the globally minimal ``(key, search_id, item)``."""
        if self._size == 0:
            raise IndexError("pop from an empty two-level heap")
        while True:
            top_key, search_id = self._top.peek()
            sub = self._subheaps.get(search_id)
            if sub is None or not sub:
                self._top.pop()
                continue
            if sub.min_key() != top_key:
                # Stale top entry -- refresh and retry.
                self._top.pop()
                self._top.push(search_id, sub.min_key())
                continue
            key, item = sub.pop()
            self._size -= 1
            self._top.pop()
            if sub:
                self._top.push(search_id, sub.min_key())
            return key, search_id, item

    def min_key(self) -> float:
        """The globally minimal key, ``inf`` when empty."""
        while self._top:
            top_key, search_id = self._top.peek()
            sub = self._subheaps.get(search_id)
            if sub is None or not sub:
                self._top.pop()
                continue
            if sub.min_key() != top_key:
                self._top.pop()
                self._top.push(search_id, sub.min_key())
                continue
            return top_key
        return float("inf")


#: Keys of the tie-heavy streams: few distinct values, as on a uniform-price
#: grid where most labels of a wavefront share a key.
_TIE_KEYS = [0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0, 7.25]

#: Mostly pushes, so sub-heaps grow deep enough for sibling ties to decide
#: the layout; search 4 is only ever removed or pushed to after a removal.
_HEAP_OPS = st.tuples(
    st.sampled_from(["push"] * 6 + ["pop"] * 3 + ["add_search", "remove_search"]),
    st.integers(0, 4),
    st.integers(0, 40),
    st.sampled_from(_TIE_KEYS),
)


def _observe(heap):
    return len(heap), bool(heap), heap.min_key()


def _replay(operations):
    """Drive both heaps through ``operations``: every return value and every
    observable must agree after every operation, and the drains must too."""
    new, spec = TwoLevelHeap(), _ComposedTwoLevel()
    for kind, search, item, key in operations:
        if kind == "pop":
            if spec:
                assert new.pop() == spec.pop()
            else:
                with pytest.raises(IndexError):
                    new.pop()
        elif kind == "push":
            assert new.push(search, item, key) is spec.push(search, item, key)
        else:
            getattr(new, kind)(search)
            getattr(spec, kind)(search)
        assert _observe(new) == _observe(spec)
    while spec:
        assert new.pop() == spec.pop()
    assert _observe(new) == _observe(spec)


class TestPopOrderSpec:
    """``TwoLevelHeap`` against the composed heap it replaced."""

    @given(st.lists(_HEAP_OPS, max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_streams_match_composed_heap(self, operations):
        """Interleaved inserts, decrease-keys, no-op pushes, pushes to a
        removed search, pops and search add/remove."""
        _replay(operations)

    def test_seeded_tie_heavy_streams_match_composed_heap(self):
        """Fixed long streams (deep heaps): the case that tells a
        right-child-on-ties sift-down from the pinned left-child one."""
        rng = random.Random(16)
        kinds = ["push"] * 14 + ["pop"] * 5 + ["remove_search"]
        for _ in range(40):
            _replay(
                [
                    (rng.choice(kinds), rng.randrange(4), rng.randrange(60), rng.choice(_TIE_KEYS))
                    for _ in range(400)
                ]
            )

    def test_ledger_heap_sequence_matches_composed_heap(self):
        """The 20 000-op sequence behind ``core.heap.twolevel_ops_per_s``."""
        _replay(
            ("push" if search >= 0 else "pop", search, item, key)
            for search, item, key in heap_sequence(random.Random(0))
        )
