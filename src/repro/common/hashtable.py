"""The descriptor-table structures of section 4.1.

The paper stores transaction descriptors "in a chained hash table based on
the transaction tid", and hashes permit descriptors and dependency edges
*doubly* — once per participating transaction — "so that permissions given
by or given to a transaction can be located efficiently".

:class:`ChainedHashTable` is that structure built honestly — configurable
bucket count, load-factor-driven resizing — and it is the *measured
reference*: the Figure 1 benchmark reports its scaling behaviour and the
property tests check the engine's indexes against it.  The engine itself
does not walk Python-level chains: the transaction table and
:class:`DoubleHashIndex` (the by-left / by-right lookups the paper
describes) are backed by ``dict``, the hash table the interpreter does in C.
"""

from __future__ import annotations


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


_SENTINEL = object()

NO_ITEMS = ()
"""What an index miss returns: shared, so a miss allocates nothing."""


def merged(left, right):
    """``left`` then ``right`` items, deduplicated by identity (an object
    indexed twice, under ``(tid, tid)`` say): a dict keyed by identity
    keeps this linear where a membership scan went quadratic on wide
    fan-outs, and keeps first-seen order."""
    items = (*left, *right)
    return list(dict(zip(map(id, items), items)).values())


class DoubleHashIndex:
    """An index over items keyed by an ordered pair of transactions.

    The paper double-hashes permit descriptors and dependency edges on "the
    tid of the two transactions involved" so that the set given *by* a
    transaction and the set given *to* a transaction can each be located in
    expected constant time.  Items are arbitrary objects; the caller
    supplies the (left, right) key pair at insertion.

    The same (left, right) pair may index many items (e.g. several permits
    between the same two transactions on different objects), so each slot
    holds a list.
    """

    def __init__(self):
        self._by_left = {}
        self._by_right = {}

    def add(self, left, right, item):
        """Index ``item`` under the pair ``(left, right)``."""
        self._by_left.setdefault(left, []).append(item)
        self._by_right.setdefault(right, []).append(item)

    def remove(self, left, right, item):
        """Remove one previously added ``item``; missing items are ignored."""
        for table, key in ((self._by_left, left), (self._by_right, right)):
            slot = table.get(key)
            if slot and item in slot:
                slot.remove(item)
                if not slot:
                    del table[key]

    def by_left(self, left):
        """Items whose pair has ``left`` on the left: the live slot (copy
        it before changing the index), or :data:`NO_ITEMS`."""
        return self._by_left.get(left, NO_ITEMS)

    def by_right(self, right):
        """Items whose pair has ``right`` on the right: the live slot (copy
        it before changing the index), or :data:`NO_ITEMS`."""
        return self._by_right.get(right, NO_ITEMS)

    def involving(self, tid):
        """All items where ``tid`` appears on either side: a fresh list,
        or :data:`NO_ITEMS` when ``tid`` is on neither."""
        left = self._by_left.get(tid, NO_ITEMS)
        right = self._by_right.get(tid, NO_ITEMS)
        return merged(left, right) if left or right else NO_ITEMS

    def __len__(self):
        return sum(map(len, self._by_left.values()))
