"""Unit coverage for the byte-bounded LRU used by the simulator's memory
model (:class:`repro.runtime.simulator._Lru`).

The eviction loop has two subtle behaviours the integration tests never
pin down directly: protected entries must be *reinstated in their
original recency order* after a pass skips them, and an over-capacity
cache where everything is protected must terminate without evicting
anything or corrupting its byte ledger.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.simulator import _Lru


def _keys(lru: _Lru) -> list:
    return list(lru.entries)


class TestBasics:
    def test_insert_and_contains(self):
        lru = _Lru(100)
        lru.insert("a", 40, False)
        assert "a" in lru
        assert "b" not in lru
        assert lru.bytes == 40

    def test_reinsert_merges_bytes_and_dirty(self):
        lru = _Lru(100)
        lru.insert("a", 40, True)
        lru.insert("a", 60, False)
        assert lru.bytes == 60
        lru.insert("b", 50, False)
        # the dirty bit is sticky: the clean re-insert did not clear it
        assert lru.evict_until_fits(set()) == [("a", 60, True)]

    def test_zero_capacity_means_unbounded(self):
        lru = _Lru(0)
        for i in range(10):
            lru.insert(i, 1 << 30, False)
        assert lru.evict_until_fits(set()) == []
        assert lru.bytes == 10 * (1 << 30)

    def test_within_capacity_is_noop(self):
        lru = _Lru(100)
        lru.insert("a", 50, False)
        assert lru.evict_until_fits(set()) == []
        assert _keys(lru) == ["a"]


class TestEvictionOrder:
    def test_evicts_least_recently_used_first(self):
        lru = _Lru(100)
        lru.insert("a", 50, False)
        lru.insert("b", 50, True)
        lru.insert("c", 50, False)
        evicted = lru.evict_until_fits(set())
        # stops as soon as it fits: only the oldest entry goes
        assert evicted == [("a", 50, False)]
        assert _keys(lru) == ["b", "c"]
        assert lru.bytes == 100

    def test_touch_promotes_to_mru(self):
        lru = _Lru(100)
        lru.insert("a", 50, False)
        lru.insert("b", 50, False)
        lru.touch("a")
        lru.insert("c", 50, False)
        evicted = lru.evict_until_fits(set())
        assert [k for k, _, _ in evicted] == ["b"]
        assert _keys(lru) == ["a", "c"]

    def test_reports_dirty_flag(self):
        lru = _Lru(10)
        lru.insert("d", 20, True)
        ((key, nbytes, dirty),) = lru.evict_until_fits(set())
        assert (key, nbytes, dirty) == ("d", 20, True)


class TestProtectedEntries:
    def test_protected_skipped_and_reinstated_in_order(self):
        lru = _Lru(100)
        for key in ("p1", "v1", "p2", "v2"):
            lru.insert(key, 50, False)
        evicted = lru.evict_until_fits({"p1", "p2"})
        assert [k for k, _, _ in evicted] == ["v1", "v2"]
        # protected survivors keep their relative recency order and sit
        # at the LRU end (they are still the oldest entries)
        assert _keys(lru) == ["p1", "p2"]
        assert lru.bytes == 100

    def test_protected_remain_first_eviction_candidates(self):
        lru = _Lru(100)
        for key in ("p1", "p2", "keep"):
            lru.insert(key, 50, False)
        evicted = lru.evict_until_fits({"p1", "p2"})
        assert [k for k, _, _ in evicted] == ["keep"]
        # force another over-capacity pass with nothing protected: the
        # reinstated entries must go first, in original order
        lru.insert("new", 80, False)
        evicted = lru.evict_until_fits(set())
        assert [k for k, _, _ in evicted] == ["p1", "p2"]

    def test_everything_protected_over_capacity(self):
        lru = _Lru(100)
        for i in range(4):
            lru.insert(i, 50, i % 2 == 0)
        before = dict(lru.entries)
        evicted = lru.evict_until_fits(set(range(4)))  # terminates
        assert evicted == []
        assert lru.bytes == 200  # unchanged, still over capacity
        assert dict(lru.entries) == before
        assert _keys(lru) == [0, 1, 2, 3]

    def test_partial_protection_still_reaches_capacity(self):
        lru = _Lru(100)
        lru.insert("p", 90, False)
        lru.insert("v", 90, False)
        evicted = lru.evict_until_fits({"p"})
        assert [k for k, _, _ in evicted] == ["v"]
        assert lru.bytes == 90


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 15), st.integers(1, 100), st.booleans()),
        min_size=0, max_size=20,
    ),
    capacity=st.integers(0, 500),
    protect=st.sets(st.integers(0, 15), max_size=16),
)
def test_lru_invariants(entries, capacity, protect):
    """Byte ledger stays exact and the loop always terminates."""
    lru = _Lru(capacity)
    for key, nbytes, dirty in entries:
        lru.insert(key, nbytes, dirty)
    evicted = lru.evict_until_fits(protect)
    # ledger: bytes tracks the surviving entries exactly
    assert lru.bytes == sum(lru.entries.values())
    # no protected key was evicted
    assert all(key not in protect for key, _, _ in evicted)
    # post-condition: within capacity, or only protected entries remain
    if capacity > 0 and lru.bytes > capacity:
        assert set(lru.entries) <= protect
    # evicted + surviving partitions the original key set
    assert {k for k, _, _ in evicted} | set(lru.entries) == {k for k, _, _ in entries}


class _TupleLru:
    """The reference model: the LRU as it held ``key -> (bytes, dirty)``."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.bytes = 0

    def __contains__(self, key):
        return key in self.entries

    def touch(self, key):
        self.entries.move_to_end(key)

    def insert(self, key, nbytes, dirty):
        if key in self.entries:
            old_bytes, old_dirty = self.entries.pop(key)
            self.bytes -= old_bytes
            dirty = dirty or old_dirty
        self.entries[key] = (nbytes, dirty)
        self.bytes += nbytes

    def evict_until_fits(self, protect):
        evicted = []
        if self.capacity <= 0 or self.bytes <= self.capacity:
            return evicted
        skipped = []
        while self.bytes > self.capacity and self.entries:
            key, (nbytes, dirty) = self.entries.popitem(last=False)
            if key in protect:
                skipped.append((key, (nbytes, dirty)))
                continue
            self.bytes -= nbytes
            evicted.append((key, nbytes, dirty))
        for key, value in reversed(skipped):
            self.entries[key] = value
            self.entries.move_to_end(key, last=False)
        return evicted


_KEYS = st.integers(0, 11)
_OPS = st.one_of(
    st.tuples(st.just("insert"), _KEYS, st.integers(1, 100), st.booleans()),
    st.tuples(st.just("touch"), _KEYS),
    st.tuples(st.just("evict"), st.frozensets(_KEYS, max_size=6)),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_OPS, max_size=60), capacity=st.integers(0, 400))
def test_lru_matches_reference_model(ops, capacity):
    """Random insert/touch/evict/protect sequences: the same evicted
    ``(key, bytes, dirty)`` triples in the same order, the same bytes."""
    lru, ref = _Lru(capacity), _TupleLru(capacity)
    for op in ops:
        if op[0] == "insert":
            lru.insert(*op[1:])
            ref.insert(*op[1:])
        elif op[0] == "touch":
            if op[1] in ref:
                lru.touch(op[1])
                ref.touch(op[1])
        else:
            assert lru.evict_until_fits(op[1]) == ref.evict_until_fits(op[1])
        assert lru.bytes == ref.bytes
        assert all((key in lru) == (key in ref) for key in range(12))
    # drain both: every surviving entry leaves in the same order, same dirty bit
    lru.capacity = ref.capacity = 0.5
    assert lru.evict_until_fits(set()) == ref.evict_until_fits(set())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
