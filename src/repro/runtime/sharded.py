"""The deterministic sharded engine (ROADMAP item 1).

:class:`ShardedRuntime` is the cooperative scheduler driving a
:class:`~repro.core.sharded.ShardedTransactionManager` — the flat
transaction manager over an N-shard
:class:`~repro.storage.store.StorageManager` — single-threaded.  Same
seeds, same schedule controllers, same replay guarantees as
:class:`~repro.runtime.coop.CooperativeRuntime`.  This is the engine the
differential harness replays recorded schedules on: its ACTA history
must be byte-identical to the single-shard oracle's.

The same manager on real threads is
``ThreadedRuntime(ShardedTransactionManager(n_shards=N))``
(:mod:`repro.runtime.threaded`), which runs the same stepper on worker
threads; its interleavings are real races, so it is verified by
*outcome* invariants, not history bytes.  The layering follows
Börger–Schewe's multi-level refinement argument (PAPERS.md): the
deterministic runtime is the specification-level machine the thread
engine refines.  Both drive the same manager with the same stepper, so
the one obligation left to the argument is scheduling.
"""

from __future__ import annotations

from repro.core.sharded import ShardedTransactionManager
from repro.runtime.coop import CooperativeRuntime

__all__ = ["ShardedRuntime"]


class ShardedRuntime(CooperativeRuntime):
    """Deterministic cooperative scheduling over the sharded manager."""

    def __init__(
        self,
        manager=None,
        n_shards=None,
        seed=None,
        schedule=None,
        watchdog=None,
        group_commit=None,
        injector=None,
    ):
        if manager is None:
            manager = ShardedTransactionManager(
                n_shards=n_shards,
                group_commit=group_commit,
                injector=injector,
            )
        super().__init__(
            manager=manager,
            seed=seed,
            schedule=schedule,
            watchdog=watchdog,
        )

    @property
    def n_shards(self):
        return self.manager.n_shards
