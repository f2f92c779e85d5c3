"""The thread engine: the cooperative stepper on worker threads.

Each worker is a :class:`~repro.runtime.coop.CooperativeRuntime` over
the engine's manager whose tasks a thread of its own steps, round after
round, with ``_step`` (the one program driver), writing every outcome
into the engine's single table.  One placement rule says which worker
runs a transaction tree:

* a tree spawned with ``key=`` joins the worker of its shard,
  ``manager.storage.router.shard_for_key(key)``, which lasts until
  :meth:`ThreadedRuntime.close`;
* a tree spawned without a key gets a worker that ends when the tree
  does;
* children stay on their parent's worker: a ``Begin`` request reaches
  the stepping worker's ``on_begun``.

A worker whose tasks all blocked, and a driver call that waits, park on
one condition variable notified on every manager event, then retry from
step 1: the paper's blocking discipline with notifications instead of
spinning.  A daemon watchdog runs the deadlock detector under the
manager mutex, as a detector thread does in a real transaction manager.
Every primitive takes that mutex and storage latches its own frames, so
the workers buy concurrency (one waits on a lock, a log sync or a page
read while another runs), not parallelism under the GIL.
"""

from __future__ import annotations

import threading
import time

from repro.runtime.coop import CooperativeRuntime


class ThreadedRuntime(CooperativeRuntime):
    """Cooperative steppers on worker threads over one shared manager."""

    def __init__(self, manager=None, watchdog_interval=0.05, poll_timeout=0.05,
                 watchdog=None):
        super().__init__(manager, watchdog=watchdog)
        self._cond = threading.Condition()
        # Wake generation: bumped under the condition on every manager
        # event.  A waiter reads it BEFORE testing its predicate and
        # hands it to _idle; a notify landing between the failed test
        # and the wait then shows as a changed generation instead of
        # being lost (a lost wake-up sleeps the whole poll timeout).
        self._wake_gen = 0
        self._poll_timeout = poll_timeout
        self._watchdog_interval = watchdog_interval
        self._watchdog_thread = None
        self._closing = threading.Event()
        self._workers = {}  # live worker -> its thread
        self._shards = {}  # shard -> its lasting worker
        # Every manager event may unblock someone: wake all waiters.
        self.manager.events.subscribe(self._on_event)

    def _on_event(self, event):
        with self._cond:
            self._wake_gen += 1
            self._cond.notify_all()

    def _idle(self, seen, why=None):
        """Wait for a manager event newer than ``seen`` (or the poll
        timeout, a backstop for changes that emit none): the workers
        move on their own, so there is always progress to wait for."""
        with self._cond:
            if self._wake_gen == seen:
                self._cond.wait(timeout=self._poll_timeout)
        return True

    # ------------------------------------------------------------------
    # placement and workers
    # ------------------------------------------------------------------

    def on_begun(self, tid):
        """Place a tree the driver began (the module's placement rule)."""
        key = self._keys.pop(tid, None)
        if key is None:
            worker = self._new_worker()
            worker.on_begun(tid)
            if worker.active_tasks():  # a program to run, not a bare tid
                self._start(worker, lasting=False)
            return
        shard = self.manager.storage.router.shard_for_key(key)
        with self._cond:
            worker = self._shards.get(shard)
            if worker is None:
                worker = self._shards[shard] = self._new_worker()
                self._start(worker, lasting=True)
        worker.on_begun(tid)
        self._on_event(None)

    def _new_worker(self):
        worker = CooperativeRuntime(self.manager)
        worker._outcomes = self._outcomes  # the engine's one table
        return worker

    def _start(self, worker, lasting):
        thread = threading.Thread(
            target=self._serve, args=(worker, lasting), daemon=True,
            name="asset-shard-worker" if lasting else "asset-tree-worker",
        )
        self._workers[worker] = thread
        thread.start()
        with self._cond:
            if self._watchdog_thread is None:
                self._watchdog_thread = threading.Thread(
                    target=self._watch, daemon=True,
                    name="asset-deadlock-watchdog",
                )
                self._watchdog_thread.start()

    def _serve(self, worker, lasting):
        """A worker's thread: rounds of the stepper, parked whenever none
        moved; a tree's own worker ends with its tree.  The thread is the
        boundary that must keep running: an error a request raised for a
        program fails that program, as a program's own error does."""
        try:
            while (lasting or worker._tasks) and not self._closing.is_set():
                seen = self._wake_gen
                moved = False
                for task in list(worker._tasks.values()):
                    try:
                        moved |= worker._step(task)
                    except Exception as exc:
                        moved |= worker._fail(
                            task, exc, f"program raised {exc!r}"
                        )
                if not moved:
                    self._idle(seen)
        finally:
            del self._workers[worker]
            self._on_event(None)  # join_all waits for it

    def _watch(self):
        """The daemon watchdog.  The detector reads lock waits and commit
        waits that every primitive mutates under the manager mutex: one
        hold of it is one consistent waits-for graph, with no victim of
        a cycle that never existed."""
        while not self._closing.wait(self._watchdog_interval):
            with self.manager._mutex:
                self._detector.resolve_one()
            if self.watchdog is not None:
                self.watchdog.on_round()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def active_tasks(self):
        """Tids of tasks that have not finished, worker by worker."""
        return [tid for worker in list(self._workers)
                for tid in worker.active_tasks()]

    def join_all(self, timeout=10.0):
        """Wait until every tree begun so far has finished and its own
        worker has ended; True if they did within ``timeout``."""
        deadline = time.monotonic() + timeout
        while True:
            seen = self._wake_gen
            keyless = len(self._workers) > len(self._shards)
            if not keyless and not self.active_tasks():
                return True
            if time.monotonic() >= deadline:
                return False
            self._idle(seen)

    def close(self):
        """Stop the workers and the watchdog."""
        self._closing.set()
        self._on_event(None)
        for thread in list(self._workers.values()):
            thread.join(timeout=2.0)
        if self._watchdog_thread is not None:
            self._watchdog_thread.join(timeout=1.0)
