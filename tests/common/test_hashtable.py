"""The chained hash table and the double-hash index of section 4.1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashtable import NO_ITEMS, DoubleHashIndex
from repro.common.ids import Tid
from tests.common.chained_table import ChainedHashTable


class TestChainedHashTable:
    def test_put_get(self):
        table = ChainedHashTable()
        table.put("a", 1)
        assert table.get("a") == 1
        assert table.get("b") is None
        assert table.get("b", 42) == 42

    def test_put_replaces(self):
        table = ChainedHashTable()
        table.put("a", 1)
        table.put("a", 2)
        assert table.get("a") == 2
        assert len(table) == 1

    def test_remove(self):
        table = ChainedHashTable()
        table.put("a", 1)
        assert table.remove("a") == 1
        assert table.remove("a") is None
        assert len(table) == 0

    def test_contains_and_iter(self):
        table = ChainedHashTable()
        for key in ("x", "y", "z"):
            table.put(key, key.upper())
        assert "x" in table and "w" not in table
        assert sorted(table) == ["x", "y", "z"]
        assert sorted(table.values()) == ["X", "Y", "Z"]

    def test_resizes_under_load(self):
        table = ChainedHashTable(buckets=8)
        for index in range(1000):
            table.put(index, index)
        assert table.bucket_count > 8
        assert len(table) == 1000
        assert all(table.get(index) == index for index in range(1000))

    def test_longest_chain_reasonable_after_resize(self):
        table = ChainedHashTable(buckets=8)
        for index in range(1000):
            table.put(index, index)
        assert table.longest_chain() <= 16

    def test_bad_bucket_count(self):
        with pytest.raises(ValueError):
            ChainedHashTable(buckets=0)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "remove"]),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_dict_model(self, commands):
        """Property: the table behaves exactly like a dict."""
        table = ChainedHashTable(buckets=2)
        model = {}
        for action, key in commands:
            if action == "put":
                table.put(key, key * 2)
                model[key] = key * 2
            else:
                assert table.remove(key) == model.pop(key, None)
        assert len(table) == len(model)
        for key, value in model.items():
            assert table.get(key) == value


class TestDoubleHashIndex:
    def test_lookup_by_both_sides(self):
        index = DoubleHashIndex()
        index.add(Tid(1), Tid(2), "a")
        index.add(Tid(1), Tid(3), "b")
        index.add(Tid(4), Tid(2), "c")
        assert sorted(index.by_left(Tid(1))) == ["a", "b"]
        assert sorted(index.by_right(Tid(2))) == ["a", "c"]
        assert index.by_left(Tid(9)) is NO_ITEMS

    def test_involving_deduplicates(self):
        index = DoubleHashIndex()
        index.add(Tid(1), Tid(1), "self")
        assert list(index.involving(Tid(1))) == ["self"]

    def test_same_pair_many_items(self):
        index = DoubleHashIndex()
        index.add(Tid(1), Tid(2), "a")
        index.add(Tid(1), Tid(2), "b")
        assert sorted(index.by_left(Tid(1))) == ["a", "b"]

    def test_remove(self):
        index = DoubleHashIndex()
        index.add(Tid(1), Tid(2), "a")
        index.remove(Tid(1), Tid(2), "a")
        assert index.by_left(Tid(1)) is NO_ITEMS
        assert index.by_right(Tid(2)) is NO_ITEMS
        assert index.involving(Tid(1)) is NO_ITEMS
        assert len(index) == 0

    def test_remove_missing_is_noop(self):
        index = DoubleHashIndex()
        index.remove(Tid(1), Tid(2), "ghost")
        assert len(index) == 0

    def test_none_key_allowed(self):
        """Wildcard-receiver permits index under None."""
        index = DoubleHashIndex()
        index.add(Tid(1), None, "wildcard")
        assert list(index.by_left(Tid(1))) == ["wildcard"]
        assert list(index.by_right(None)) == ["wildcard"]

    def test_involving_one_side_is_the_live_slot(self):
        index = DoubleHashIndex()
        index.add(Tid(1), Tid(2), "a")
        assert index.involving(Tid(1)) is index.by_left(Tid(1))
        assert index.involving(Tid(2)) is index.by_right(Tid(2))

    def test_involving_both_sides_is_a_fresh_merge(self):
        index = DoubleHashIndex()
        index.add(Tid(1), Tid(2), "a")
        index.add(Tid(3), Tid(1), "b")
        both = index.involving(Tid(1))
        assert list(both) == ["a", "b"]
        assert both is not index.by_left(Tid(1))
        assert both is not index.by_right(Tid(1))

    def test_remove_keeps_insertion_order(self):
        index = DoubleHashIndex()
        for item in "abcd":
            index.add(Tid(1), Tid(2), item)
        index.remove(Tid(1), Tid(2), "b")
        assert list(index.by_left(Tid(1))) == ["a", "c", "d"]
        assert list(index.by_right(Tid(2))) == ["a", "c", "d"]
