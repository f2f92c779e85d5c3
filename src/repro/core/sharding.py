"""Striped control structures (ROADMAP item 1).

The sharded engine stripes the paper's section 4.1 control structures —
object descriptors, permit buckets (which live on the ODs), and the
dependency-edge index — across N shards, each guarded by one of the
existing EOS S/X latches (:mod:`repro.common.latch`).  Placement — which
shard an object lives on — is the storage manager's
(:class:`~repro.storage.segmented.ShardRouter`); this module holds the
striped graph:

* :class:`StripedDependencyGraph` — the dependency graph over a striped
  double-hash index.  Stripes are keyed by the dependent's tid residue;
  cross-stripe queries (``by_right``, ``involving``) reassemble global
  insertion order from a per-edge sequence number, so traversal order —
  and therefore abort-cascade event order — is identical to the
  unsharded graph.
"""

from __future__ import annotations

from repro.common.hashtable import NO_ITEMS, DoubleHashIndex
from repro.core.dependency import DependencyGraph

DEFAULT_SHARDS = 4  # the sharded manager's, when it is given no count


class _StripedIndex:
    """A :class:`DoubleHashIndex` striped by the left key's tid residue.

    Presents the same duck API (``add`` / ``remove`` / ``by_left`` /
    ``by_right`` / ``involving`` / ``__len__``).  All items for one left
    key live in one stripe, so ``by_left`` is a single-stripe probe —
    the hot path (``outgoing`` during commit scans) never crosses
    stripes.  ``by_right`` and ``involving`` must union stripes; a
    global per-item sequence number restores exact insertion order so
    the union is indistinguishable from the unsharded index.
    """

    def __init__(self, n_stripes):
        self._stripes = [DoubleHashIndex() for __ in range(n_stripes)]
        self.n_stripes = n_stripes
        self._seq = 0
        self._order = {}  # id(item) -> insertion sequence

    def _stripe_of(self, left):
        return self._stripes[left % self.n_stripes]

    def add(self, left, right, item):
        self._order[id(item)] = self._seq
        self._seq += 1
        self._stripe_of(left).add(left, right, item)

    def remove(self, left, right, item):
        self._stripe_of(left).remove(left, right, item)
        self._order.pop(id(item), None)

    def by_left(self, left):
        return self._stripe_of(left).by_left(left)

    def by_right(self, right):
        items = [
            item
            for stripe in self._stripes
            for item in stripe.by_right(right)
        ]
        items.sort(key=lambda item: self._order.get(id(item), 0))
        return dict.fromkeys(items) if items else NO_ITEMS

    def involving(self, tid):
        # Mirror DoubleHashIndex.involving exactly: left-side items in
        # insertion order, then right-side items in insertion order.
        left, right = self.by_left(tid), self.by_right(tid)
        if left and right:
            return {**left, **right}
        return left or right

    def __len__(self):
        return sum(len(stripe) for stripe in self._stripes)


class StripedDependencyGraph(DependencyGraph):
    """The dependency graph over stripes of the double-hash index.

    Pure structural striping: every traversal (abort closure, cycle
    refusal) and the GC component upkeep are inherited, and the
    seq-ordered striped index keeps
    edge iteration order identical to the single-index graph — which the
    differential harness relies on for byte-identical abort cascades.
    """

    def __init__(self, n_stripes):
        super().__init__(_StripedIndex(n_stripes))
