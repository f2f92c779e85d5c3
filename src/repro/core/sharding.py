"""Shard routing and striped control structures (ROADMAP item 1).

The sharded engine stripes the paper's section 4.1 control structures —
object descriptors, permit buckets (which live on the ODs), and the
dependency-edge index — across N shards, each guarded by one of the
existing EOS S/X latches (:mod:`repro.common.latch`).  This module holds
the pieces that are pure data-plane routing:

* :class:`ShardRouter` — object placement.  Named objects hash by name
  (stable CRC32, independent of ``PYTHONHASHSEED``); unnamed objects
  hash by object-id value.  The router keeps an explicit directory so
  object ids stay *globally sequential* — the deterministic sharded
  runtime must allocate the same oid values as the single-manager
  oracle, or differential replay could never compare histories
  byte-for-byte.
* :class:`StripedDependencyGraph` — the dependency graph over a striped
  double-hash index.  Stripes are keyed by the dependent's tid residue;
  cross-stripe queries (``by_right``, ``involving``) reassemble global
  insertion order from a per-edge sequence number, so traversal order —
  and therefore abort-cascade event order — is identical to the
  unsharded graph.
"""

from __future__ import annotations

import os
import zlib

from repro.common.hashtable import DoubleHashIndex
from repro.core.dependency import DependencyGraph

DEFAULT_SHARDS = 4


def default_shard_count():
    """Shard count from ``REPRO_SHARDS`` (default 4)."""
    raw = os.environ.get("REPRO_SHARDS", "").strip()
    if not raw:
        return DEFAULT_SHARDS
    count = int(raw)
    if count < 1:
        raise ValueError(f"REPRO_SHARDS must be >= 1, got {count}")
    return count


def stable_hash(key):
    """A process-independent hash for routing keys (CRC32 of the text).

    ``hash(str)`` is salted per process (PYTHONHASHSEED), which would
    make object placement — and thus WAL segment contents — differ
    between a run and its replay.
    """
    return zlib.crc32(str(key).encode("utf-8"))


class ShardRouter:
    """Maps objects (and routing keys) to shard indexes.

    Placement happens once, at object creation: named objects go to
    ``crc32(name) % n``, unnamed objects to ``oid % n``.  The
    choice is remembered in a directory keyed by oid value so every
    later touch routes without rehashing (and so recovery can verify
    its log-derived placements against the stores).
    """

    def __init__(self, n_shards):
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        self._directory = {}  # oid value -> shard index
        # Placement epoch: bumped whenever shard ownership changes
        # (cluster membership churn).  Routed requests carry the epoch
        # they were resolved under; an owner that has seen a newer one
        # rejects the stale route and the caller re-resolves.
        self.epoch = 0

    def bump_epoch(self):
        """A new placement generation; returns the new epoch."""
        self.epoch += 1
        return self.epoch

    def shard_for_key(self, key):
        """The home shard for a routing key (transaction or object name)."""
        return stable_hash(key) % self.n_shards

    def place(self, oid, name=""):
        """Decide and remember the shard for a newly created object."""
        if name:
            shard = self.shard_for_key(name)
        else:
            shard = oid % self.n_shards
        self._directory[oid] = shard
        return shard

    def place_at(self, oid, shard):
        """Record an externally decided placement (recovery rebuild)."""
        self._directory[oid] = shard

    def shard_of(self, oid):
        """The shard an object lives on (hash fallback for unseen oids).

        The fallback keeps routing total: probing an object that was
        never created (a lock on a not-yet-existing oid, a test poking
        an arbitrary id) deterministically lands somewhere.
        """
        shard = self._directory.get(oid)
        if shard is None:
            if oid.name:
                shard = self.shard_for_key(oid.name)
            else:
                shard = oid % self.n_shards
        return shard

    def forget(self, oid):
        """Drop a placement (object deleted and undone)."""
        self._directory.pop(oid, None)

    def snapshot(self):
        """Copy of the directory (tests and recovery verification)."""
        return dict(self._directory)

    def clear(self):
        self._directory.clear()


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
        merged = [
            item
            for stripe in self._stripes
            for item in stripe.by_right(right)
        ]
        merged.sort(key=lambda item: self._order.get(id(item), 0))
        return merged

    def involving(self, tid):
        # Mirror DoubleHashIndex.involving exactly: left-side items in
        # insertion order, then right-side items in insertion order,
        # deduplicated by identity.
        seen = set()
        out = []
        for item in self.by_left(tid) + self.by_right(tid):
            if id(item) not in seen:
                seen.add(id(item))
                out.append(item)
        return out

    def __len__(self):
        return sum(len(stripe) for stripe in self._stripes)


class StripedDependencyGraph(DependencyGraph):
    """The dependency graph over stripes of the double-hash index.

    Pure structural striping: every traversal (gc_group, abort closure,
    cycle refusal) is inherited, and the seq-ordered striped index keeps
    edge iteration order identical to the single-index graph — which the
    differential harness relies on for byte-identical abort cascades.
    """

    def __init__(self, n_stripes):
        super().__init__()
        self._index = _StripedIndex(n_stripes)
