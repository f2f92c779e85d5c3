"""The N-shard transaction manager (ROADMAP item 1).

There is one transaction manager.  Sharding belongs to storage: a
:class:`~repro.storage.store.StorageManager` of N shards keeps per-shard
object stores, buffer pools and WAL segments with parallel group commit,
places objects with its :class:`~repro.storage.segmented.ShardRouter`,
and latches every cached frame itself (paper section 4.1).
``TransactionManager(storage=StorageManager(n_shards=N))`` is the
N-shard engine; its control structures — object descriptors, permits,
the dependency graph — are the flat manager's, under its one mutex.

:class:`ShardedTransactionManager` is that manager with a shard-count
default (a 4-shard store when it is given none), the ``n_shards`` and
``router`` attributes, and one statistic: ``cross_shard_commits``,
commits whose group logged updates into more than one shard, as the
store's commit barrier counts them.  Its ``try_commit`` only reads that
count; it overrides no other primitive, so the deterministic
:class:`~repro.runtime.sharded.ShardedRuntime` replays the oracle's
ACTA history byte for byte (``tests/differential``), and the counters
are exact under the parallel runtime too.
"""

from __future__ import annotations

from repro.core.manager import TransactionManager
from repro.storage.store import StorageManager

DEFAULT_SHARDS = 4  # the store's shard count, when none is given


class ShardedTransactionManager(TransactionManager):
    """The flat manager over an N-shard store, counting cross-shard
    commits."""

    def __init__(
        self,
        n_shards=None,
        storage=None,
        conflicts=None,
        max_transactions=None,
        events=None,
        clock=None,
        group_commit=None,
        failpoint=None,
        admission=None,
        injector=None,
        capacity=256,
    ):
        if storage is None:
            storage = StorageManager(
                n_shards=n_shards or DEFAULT_SHARDS,
                group_commit=group_commit,
                injector=injector,
                capacity=capacity,
            )
        super().__init__(
            storage=storage,
            conflicts=conflicts,
            max_transactions=max_transactions,
            events=events,
            clock=clock,
            failpoint=failpoint,
            admission=admission,
        )
        self.n_shards = storage.n_shards
        self.router = storage.router
        self.stats["cross_shard_commits"] = 0

    def try_commit(self, tid):
        with self._mutex:
            outcome = super().try_commit(tid)
            # The store counts them where its commit barrier decides
            # which shards a group spans.
            self.stats["cross_shard_commits"] = self.storage.cross_shard_commits
            return outcome
