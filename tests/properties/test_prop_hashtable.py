"""Property: the dict-backed ``DoubleHashIndex`` the engine runs on agrees
with the paper's structure — two :class:`ChainedHashTable` chains of
lists, one per side — through any add/remove history.

The chained table is the FIG1 reference (``benchmarks/
test_bench_descriptors.py`` measures it); this suite is what keeps the
engine's index honest against it now that the two are different code.
As in the engine, each item is indexed under one pair, once (an edge or
a permit is added once and removed at most once); a remove may name an
item already gone, or one under another pair.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashtable import NO_ITEMS, DoubleHashIndex
from repro.common.ids import Tid
from tests.common.chained_table import ChainedHashTable

N_TIDS = 6
# None is the wildcard-receiver key permits index under.
keys = st.integers(1, N_TIDS).map(Tid) | st.none()
# ("add", left, right, _) indexes a fresh item; ("remove", left, right,
# n) removes the n-th item ever added (modulo the count) under that pair.
command = st.tuples(
    st.sampled_from(["add", "remove"]), keys, keys, st.integers(0, 30)
)


class ChainedReference:
    """The pre-dict implementation, built from the reference table."""

    def __init__(self):
        self._by_left = ChainedHashTable(buckets=2)
        self._by_right = ChainedHashTable(buckets=2)

    def add(self, left, right, item):
        for table, key in ((self._by_left, left), (self._by_right, right)):
            slot = table.get(key)
            if slot is None:
                slot = []
                table.put(key, slot)
            slot.append(item)

    def remove(self, left, right, item):
        for table, key in ((self._by_left, left), (self._by_right, right)):
            slot = table.get(key)
            if slot and item in slot:
                slot.remove(item)
                if not slot:
                    table.remove(key)

    def by_left(self, left):
        return list(self._by_left.get(left) or ())

    def by_right(self, right):
        return list(self._by_right.get(right) or ())

    def __len__(self):
        return sum(len(slot) for slot in self._by_left.values())


@settings(max_examples=200, deadline=None)
@given(st.lists(command, max_size=60))
def test_dict_index_matches_the_chained_reference(commands):
    index = DoubleHashIndex()
    reference = ChainedReference()
    added = []
    for action, left, right, pick in commands:
        if action == "add":
            item = len(added)
            added.append(item)
        elif added:
            item = added[pick % len(added)]
        else:
            item = "ghost"
        getattr(index, action)(left, right, item)
        getattr(reference, action)(left, right, item)
        assert len(index) == len(reference)
        for key in [Tid(v) for v in range(1, N_TIDS + 1)] + [None]:
            left_items = reference.by_left(key)
            right_items = reference.by_right(key)
            assert list(index.by_left(key)) == left_items
            assert list(index.by_right(key)) == right_items
            involving = index.involving(key)
            assert list(involving) == list(
                dict.fromkeys(left_items + right_items)
            )
            # One side only: the live slot itself, no merge.
            if not (left_items and right_items):
                assert involving is (index.by_left(key) or index.by_right(key))
            # A miss is the shared empty tuple, not a fresh list.
            if not left_items:
                assert index.by_left(key) is NO_ITEMS
            if not right_items:
                assert index.by_right(key) is NO_ITEMS
            if not (left_items or right_items):
                assert involving is NO_ITEMS
    # Emptied slots are dropped, not left behind.
    assert all(index._by_left.values()) and all(index._by_right.values())
