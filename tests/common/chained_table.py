"""The paper's chained hash table (section 4.1), kept as a reference.

ASSET stores transaction descriptors "in a chained hash table based on
the transaction tid".  :class:`ChainedHashTable` is that structure built
honestly — configurable bucket count, load-factor-driven resizing.  The
engine runs on ``dict`` instead (``repro.common.hashtable``); this table
is what the Figure 1 benchmark (``benchmarks/test_bench_descriptors.py``)
measures and what ``tests/properties/test_prop_hashtable.py`` checks the
engine's double-hash index against.
"""

from __future__ import annotations

_SENTINEL = object()


class ChainedHashTable:
    """A hash table with per-bucket chains and automatic resizing.

    Supports the usual mapping operations plus ``buckets`` introspection for
    the descriptor benchmark.  Keys must be hashable.
    """

    _MIN_BUCKETS = 8

    def __init__(self, buckets=None, max_load=4.0):
        if buckets is None:
            buckets = self._MIN_BUCKETS
        if buckets < 1:
            raise ValueError("bucket count must be positive")
        self._buckets = [[] for __ in range(buckets)]
        self._size = 0
        self._max_load = max_load

    def _bucket_for(self, key):
        return self._buckets[hash(key) % len(self._buckets)]

    def _resize(self):
        old_entries = [entry for chain in self._buckets for entry in chain]
        self._buckets = [[] for __ in range(len(self._buckets) * 2)]
        for key, value in old_entries:
            self._bucket_for(key).append((key, value))

    def put(self, key, value):
        """Insert or replace the value stored under ``key``."""
        chain = self._bucket_for(key)
        for index, (existing, __) in enumerate(chain):
            if existing == key:
                chain[index] = (key, value)
                return
        chain.append((key, value))
        self._size += 1
        if self._size > self._max_load * len(self._buckets):
            self._resize()

    def get(self, key, default=None):
        """Return the value under ``key``, or ``default`` if absent."""
        for existing, value in self._bucket_for(key):
            if existing == key:
                return value
        return default

    def remove(self, key):
        """Remove and return the value under ``key``; ``None`` if absent."""
        chain = self._bucket_for(key)
        for index, (existing, value) in enumerate(chain):
            if existing == key:
                del chain[index]
                self._size -= 1
                return value
        return None

    def __contains__(self, key):
        return self.get(key, _SENTINEL) is not _SENTINEL

    def __len__(self):
        return self._size

    def __iter__(self):
        for chain in self._buckets:
            yield from (key for key, __ in chain)

    def items(self):
        """Iterate over ``(key, value)`` pairs in bucket order."""
        for chain in self._buckets:
            yield from chain

    def values(self):
        """Iterate over stored values in bucket order."""
        for chain in self._buckets:
            yield from (value for __, value in chain)

    @property
    def bucket_count(self):
        """Number of buckets currently allocated (for benchmarks)."""
        return len(self._buckets)

    def longest_chain(self):
        """Length of the longest bucket chain (for benchmarks)."""
        return max((len(chain) for chain in self._buckets), default=0)

