"""The sharded execution engines (ROADMAP item 1).

Two runtimes over one :class:`~repro.core.sharded.ShardedTransactionManager`
— the flat transaction manager over an N-shard
:class:`~repro.storage.store.StorageManager`:

* :class:`ShardedRuntime` — the *deterministic* sharded engine: the
  cooperative scheduler driving that manager single-threaded.  Same
  seeds, same schedule controllers, same replay guarantees as
  :class:`~repro.runtime.coop.CooperativeRuntime`.  This is the engine
  the differential harness replays recorded schedules on — its ACTA
  history must be byte-identical to the single-shard oracle's.

* :class:`ParallelShardedRuntime` — one worker thread per shard, each
  running the cooperative stepper over the tasks routed to it.  Tasks
  land on a shard by routing key (``spawn(..., key=...)``), or
  round-robin; children spawn onto their parent's shard.  Blocked
  workers park on a shared condition variable with a wake-generation
  token, and a daemon watchdog runs the deadlock detector — both
  inherited, with the driver API, from
  :class:`~repro.runtime.threaded.ThreadDrivenRuntime`.  Every primitive
  takes the manager's one mutex, and storage latches its own frames, so
  the workers buy concurrency (a worker waits on a lock, a log sync or a
  page read while another runs), not parallelism under the GIL.
  Per-run interleavings are real races, so it is verified by *outcome*
  invariants, not history bytes.

The layering follows Börger–Schewe's multi-level refinement argument
(PAPERS.md): the deterministic runtime is the specification-level
machine the parallel engine refines.  Both drive the same manager, so
the one obligation left to the argument is scheduling.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.common.ids import NULL_TID
from repro.core.sharded import ShardedTransactionManager
from repro.runtime.coop import CooperativeRuntime, RunResult
from repro.runtime.threaded import ThreadDrivenRuntime

__all__ = ["ShardedRuntime", "ParallelShardedRuntime"]


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


class _ShardWorkerRuntime(CooperativeRuntime):
    """One shard's task container inside :class:`ParallelShardedRuntime`.

    A cooperative runtime over the *shared* manager: it owns the subset
    of tasks routed to its shard and steps them with the standard
    cooperative ``round``.  Children a task begins land here too (the
    request interpreter calls this runtime's ``on_begun``), which keeps
    a transaction tree on one worker thread — one thread drives any
    given generator, ever.
    """

    def __init__(self, parent, shard):
        super().__init__(manager=parent.manager)
        self._parent = parent
        self._shard = shard

    def on_begun(self, tid):
        self._parent._owner.setdefault(tid, self._shard)
        super().on_begun(tid)

    def result_of(self, tid):
        # Cross-shard GetResult: consult the whole engine, not just the
        # local task table.
        return self._parent.result_of(tid)


class ParallelShardedRuntime(ThreadDrivenRuntime):
    """Thread-per-shard execution over the sharded manager."""

    def __init__(
        self,
        manager=None,
        n_shards=None,
        watchdog_interval=0.05,
        poll_timeout=0.5,
        watchdog=None,
        group_commit=None,
    ):
        if manager is None:
            manager = ShardedTransactionManager(
                n_shards=n_shards, group_commit=group_commit
            )
        super().__init__(manager, watchdog_interval, poll_timeout, watchdog)
        self.n_shards = manager.n_shards
        self._subs = [
            _ShardWorkerRuntime(self, index)
            for index in range(self.n_shards)
        ]
        self._inboxes = [deque() for __ in range(self.n_shards)]
        self._owner = {}  # tid -> shard index
        self._pinned = {}  # tid -> shard index chosen before begin
        self._rr = 0
        self._threads = []

    # ------------------------------------------------------------------
    # worker and watchdog threads
    # ------------------------------------------------------------------

    def _ensure_threads(self):
        if not self._threads:
            for index in range(self.n_shards):
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(index,),
                    name=f"asset-shard-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        super()._ensure_threads()

    def _worker_loop(self, shard):
        sub = self._subs[shard]
        inbox = self._inboxes[shard]
        while not self._closing.is_set():
            token = self._wake_token()
            moved = False
            while True:
                with self._cond:
                    if not inbox:
                        break
                    tid = inbox.popleft()
                sub.on_begun(tid)
                moved = True
            if sub.active_tasks():
                moved |= sub.round()
            if not moved:
                self._wait_a_moment(seen=token)

    def _resolve_deadlock(self):
        # The detector reads lock-wait state every primitive mutates
        # under the manager mutex: hold it for a stable scan.
        with self.manager._mutex:
            self._detector.resolve_one()

    def run(self, function, args=(), key=None):
        tid = self.spawn(function, args=args, key=key)
        if not tid:
            return RunResult(tid=tid, committed=False)
        committed = self.commit(tid)
        return RunResult(
            tid=tid, committed=bool(committed), value=self.result_of(tid)
        )

    def spawn(self, function, args=(), initiator=NULL_TID, key=None):
        """``initiate`` + ``begin``; ``key`` routes to a specific shard
        (the object-key hash routing of ISSUE 7), otherwise round-robin.
        """
        tid = self.initiate(function, args=args, initiator=initiator)
        if tid:
            if key is not None:
                self._pinned[tid] = self.manager.router.shard_for_key(key)
            self.begin(tid)
        return tid

    # ------------------------------------------------------------------
    # task management
    # ------------------------------------------------------------------

    def on_begun(self, tid):
        """Route a begun transaction to its shard's worker inbox."""
        if tid in self._owner:
            return
        td = self.manager.table.get(tid)
        if td.function is None:
            self.manager.note_completed(tid)
            return
        shard = self._pinned.pop(tid, None)
        if shard is None:
            shard = self._rr % self.n_shards
            self._rr += 1
        self._owner[tid] = shard
        with self._cond:
            self._inboxes[shard].append(tid)
            self._wake_gen += 1
            self._cond.notify_all()

    def result_of(self, tid):
        shard = self._owner.get(tid)
        if shard is None:
            return None
        # Bypass the sub-runtime's parent-consulting override.
        return CooperativeRuntime.result_of(self._subs[shard], tid)

    def error_of(self, tid):
        shard = self._owner.get(tid)
        if shard is None:
            return None
        return CooperativeRuntime.error_of(self._subs[shard], tid)

    def active_tasks(self):
        # The inboxes first, under the lock their workers pop them under:
        # a deque walked while another thread pops it raises, and a tid
        # popped after this read is in its sub-runtime by the next one.
        with self._cond:
            queued = [tid for inbox in self._inboxes for tid in inbox]
        return [
            tid for sub in self._subs for tid in sub.active_tasks()
        ] + queued

    def join_all(self, timeout=10.0):
        """Wait until every routed task has finished (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.active_tasks():
                return True
            token = self._wake_token()
            self._wait_a_moment(seen=token)
        return not self.active_tasks()

    def close(self):
        self._closing.set()
        with self._cond:
            self._wake_gen += 1
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._stop_watchdog()
