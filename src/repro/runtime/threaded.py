"""The threaded runtime: a thread per transaction, real blocking.

Each begun transaction gets a worker thread that advances its program and
executes requests against the shared :class:`TransactionManager`.  Blocked
requests wait on a condition variable that is notified whenever the
manager emits any event (every state change emits one), then retry from
step 1 — the paper's blocking discipline with notifications instead of
spinning.

A daemon watchdog periodically runs the deadlock detector and aborts a
victim, mirroring what a lock-timeout or detector thread does in a real
transaction manager.
"""

from __future__ import annotations

import threading

from repro.common.errors import TransactionAborted
from repro.common.ids import NULL_TID
from repro.core.deadlock import DeadlockDetector
from repro.core.manager import TransactionManager
from repro.runtime.coop import RunResult
from repro.runtime.program import (
    BLOCKED,
    TxnContext,
    commit_when_ended,
    execute_request,
)


class ThreadDrivenRuntime:
    """What every thread-driven runtime shares: wake-ups, the paper-style
    driver API, and the deadlock watchdog.

    Subclasses own how a begun transaction gets a thread (``on_begun``)
    and start their threads from :meth:`_ensure_threads`.
    """

    def __init__(self, manager, watchdog_interval, poll_timeout, watchdog):
        self.manager = manager
        self._cond = threading.Condition()
        # Wake generation: bumped under the condition on every manager
        # event.  Waiters capture the generation BEFORE testing their
        # predicate and pass it to _wait_a_moment; a notify that lands
        # between the failed test and the wait is then seen as a changed
        # generation instead of being lost (the lost-wakeup race that
        # made blocked workers sleep the full poll timeout).
        self._wake_gen = 0
        self._poll_timeout = poll_timeout
        self._watchdog_interval = watchdog_interval
        self._watchdog_thread = None
        self._closing = threading.Event()
        self._detector = DeadlockDetector(self.manager)
        # Resilience watchdog (repro.resilience.Watchdog): driven from
        # the same daemon loop as the deadlock detector, so deadline and
        # lease expiries are enforced for threaded transactions too (the
        # logical clock still only moves on ticks, so scans stay
        # deterministic with respect to the event stream).
        self.watchdog = watchdog
        # Every manager event may unblock someone: wake all waiters.
        self.manager.events.subscribe(self._on_event)

    def _on_event(self, event):
        with self._cond:
            self._wake_gen += 1
            self._cond.notify_all()

    def _wake_token(self):
        """The current wake generation; capture before testing a predicate."""
        with self._cond:
            return self._wake_gen

    def _wait_a_moment(self, seen=None):
        """Wait for the next wake-up (or the poll timeout).

        ``seen`` is the generation captured before the caller last tested
        its predicate; if events have fired since, return immediately —
        the predicate may already hold and waiting would only add a poll
        timeout of dead air.  The timeout stays as a backstop for state
        changes that emit no event.
        """
        with self._cond:
            if seen is not None and self._wake_gen != seen:
                return
            self._cond.wait(timeout=self._poll_timeout)

    def _ensure_threads(self):
        """Start whatever daemon threads the runtime needs (idempotent)."""
        if self._watchdog_thread is None or not self._watchdog_thread.is_alive():
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop, daemon=True,
                name="asset-deadlock-watchdog",
            )
            self._watchdog_thread.start()

    def _resolve_deadlock(self):
        self._detector.resolve_one()

    def _watchdog_loop(self):
        while not self._closing.wait(self._watchdog_interval):
            self._resolve_deadlock()
            if self.watchdog is not None:
                self.watchdog.on_round()

    def _stop_watchdog(self):
        self._closing.set()
        if self._watchdog_thread is not None:
            self._watchdog_thread.join(timeout=1.0)

    # ------------------------------------------------------------------
    # the paper-style driver API
    # ------------------------------------------------------------------

    def initiate(self, function, args=(), initiator=NULL_TID):
        """Register a transaction that will execute ``function``."""
        return self.manager.initiate(
            function=function, args=args, initiator=initiator
        )

    def begin(self, *tids):
        """Start initiated transactions, blocking on begin dependencies."""
        self._ensure_threads()
        while True:
            token = self._wake_token()
            begun, blockers = self.manager.try_begin(*tids)
            if begun:
                for tid in tids:
                    self.on_begun(tid)
                return 1
            if not blockers or any(map(self.manager.has_aborted, tids)):
                return 0
            self._wait_a_moment(seen=token)

    def commit(self, tid):
        """Commit ``tid``, blocking until the outcome is final."""
        td = self.manager.table.get(tid)
        while True:
            # Token before the status read: a completion landing in
            # between changes the generation and the wait returns at once.
            token = self._wake_token()
            outcome = commit_when_ended(self.manager, td)
            if outcome.is_final:
                return 1 if outcome else 0
            self._wait_a_moment(seen=token)

    def wait(self, tid):
        """Block until ``tid`` completes (1) or aborts (0)."""
        while True:
            token = self._wake_token()
            result = self.manager.wait_outcome(tid)
            if result is not None:
                return 1 if result else 0
            self._wait_a_moment(seen=token)

    def abort(self, tid):
        """Abort ``tid``; 1 on success, 0 if already committed."""
        return 1 if self.manager.abort(tid) else 0

    def commit_all(self, tids):
        """Commit a batch in *completion order*, returning {tid: 0/1}.

        Avoids the driver-order deadlock of committing a fixed list while
        earlier members are lock-blocked behind later, uncommitted ones.
        """
        outcomes = {}
        pending = [self.manager.table.get(tid) for tid in tids]
        while pending:
            token = self._wake_token()
            waiting = []
            for td in pending:
                outcome = commit_when_ended(self.manager, td)
                if outcome.is_final:
                    outcomes[td.tid] = 1 if outcome else 0
                else:
                    waiting.append(td)
            if len(waiting) == len(pending):  # nobody settled this pass
                self._wait_a_moment(seen=token)
            pending = waiting
        return outcomes

    def poll(self):
        """Yield briefly to the worker threads; always reports progress
        possible (the threads run on their own)."""
        self._wait_a_moment()
        return True


class ThreadedRuntime(ThreadDrivenRuntime):
    """Thread-per-transaction execution over the shared core."""

    def __init__(self, manager=None, watchdog_interval=0.05, poll_timeout=0.05,
                 watchdog=None):
        super().__init__(
            manager if manager is not None else TransactionManager(),
            watchdog_interval, poll_timeout, watchdog,
        )
        self._threads = {}
        self._results = {}
        self._errors = {}

    def run(self, function, args=()):
        """``initiate`` + ``begin`` + ``commit``; returns a
        :class:`~repro.runtime.coop.RunResult` like every other runtime."""
        tid = self.initiate(function, args=args)
        if not tid:
            return RunResult(tid=tid, committed=False)
        self.begin(tid)
        committed = self.commit(tid)
        self.join_all()
        return RunResult(
            tid=tid, committed=bool(committed), value=self.result_of(tid)
        )

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------

    def on_begun(self, tid):
        """Spawn the worker thread for a transaction that just began."""
        if tid in self._threads:
            return
        td = self.manager.table.get(tid)
        if td.function is None:
            self.manager.note_completed(tid)
            return
        thread = threading.Thread(
            target=self._worker, args=(tid, td),
            name=f"asset-txn-{int(tid)}", daemon=True,
        )
        self._threads[tid] = thread
        thread.start()

    def _worker(self, tid, td):
        ctx = TxnContext(tid, parent=td.parent)
        gen = td.function(ctx, *td.args)
        to_send = None
        try:
            while True:
                if self.manager.has_aborted(tid):
                    gen.throw(TransactionAborted(tid))
                    return
                try:
                    request = gen.send(to_send)
                except StopIteration as stop:
                    self._results[tid] = stop.value
                    self.manager.note_completed(tid)
                    return
                while True:
                    token = self._wake_token()
                    state, value = execute_request(
                        self.manager, self, tid, request
                    )
                    if state is not BLOCKED:
                        break
                    if self.manager.has_aborted(tid):
                        gen.throw(TransactionAborted(tid))
                        return
                    self._wait_a_moment(seen=token)
                to_send = value
                if self.manager.has_aborted(tid):
                    # abort(self()) ends the program here.
                    gen.close()
                    return
        except (StopIteration, TransactionAborted):
            pass
        except Exception as exc:
            self._errors[tid] = exc
            self.manager.abort(tid, reason=f"program raised {exc!r}")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def result_of(self, tid):
        """The return value of ``tid``'s program (None if none)."""
        return self._results.get(tid)

    def error_of(self, tid):
        """The exception that aborted ``tid``'s program, if any."""
        return self._errors.get(tid)

    def join_all(self, timeout=10.0):
        """Wait for all worker threads to finish."""
        for thread in list(self._threads.values()):
            thread.join(timeout=timeout)

    def close(self):
        """Stop the watchdog and join workers."""
        self._closing.set()
        self.join_all()
        self._stop_watchdog()
