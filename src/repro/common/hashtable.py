"""The descriptor-table structures of section 4.1.

The paper stores transaction descriptors "in a chained hash table based on
the transaction tid", and hashes permit descriptors and dependency edges
*doubly* — once per participating transaction — "so that permissions given
by or given to a transaction can be located efficiently".

The engine does not walk Python-level chains: the transaction table and
:class:`DoubleHashIndex` (the by-left / by-right lookups the paper
describes) are backed by ``dict``, the hash table the interpreter does in
C.  The chained table itself is the measured reference of the Figure 1
benchmark and lives with the tests (``tests/common/chained_table.py``).
"""

from __future__ import annotations

NO_ITEMS = ()
"""What an index miss returns: shared, so a miss allocates nothing."""


class DoubleHashIndex:
    """An index over items keyed by an ordered pair of transactions.

    The paper double-hashes permit descriptors and dependency edges on "the
    tid of the two transactions involved" so that the set given *by* a
    transaction and the set given *to* a transaction can each be located in
    expected constant time.  Items are hashable objects, each indexed under
    one pair, once; the caller supplies the (left, right) key pair at
    insertion.

    The same (left, right) pair may index many items (e.g. several permits
    between the same two transactions on different objects), so each slot
    is a dict keyed by item: it iterates in insertion order, and removing
    an item is one probe.
    """

    def __init__(self):
        self._by_left = {}
        self._by_right = {}

    def add(self, left, right, item):
        """Index ``item`` under the pair ``(left, right)``."""
        self._by_left.setdefault(left, {})[item] = None
        self._by_right.setdefault(right, {})[item] = None

    def remove(self, left, right, item):
        """Remove one previously added ``item``; missing items are ignored."""
        for table, key in ((self._by_left, left), (self._by_right, right)):
            slot = table.get(key)
            if slot is not None:
                slot.pop(item, None)
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
        """All items where ``tid`` appears on either side, left-side items
        first: the live slot when only one side has any (copy it before
        changing the index), a fresh merge when both do (an item indexed
        under ``(tid, tid)`` appears once), or :data:`NO_ITEMS`."""
        left = self._by_left.get(tid, NO_ITEMS)
        right = self._by_right.get(tid, NO_ITEMS)
        if left and right:
            return {**left, **right}
        return left or right

    def __len__(self):
        return sum(map(len, self._by_left.values()))
