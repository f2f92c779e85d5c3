"""The deterministic cooperative runtime.

Transactions run as generator tasks; the scheduler interleaves them one
request at a time, either round-robin or in a seeded-random order.  The
same seed always yields the same interleaving, which is what the property
tests and benchmarks need from a concurrency substrate (the paper ran on
OS processes; determinism is this reproduction's substitute for wall-clock
racing — see DESIGN.md).

Blocked requests are retried every round, "starting at step 1" as the
section 4.2 algorithms specify — but a round visits only *live* tasks:
a task leaves the scheduler the moment it finishes, so a round costs what
the transactions in flight cost, not the transactions ever run.  When a
full round makes no progress the runtime asks the deadlock detector for a
victim; a stall with no deadlock cycle raises
:class:`SchedulerStalledError` — in a correct program that means a
dependency that can never resolve, which is a bug worth surfacing loudly.

The driver API and the stepper here are every engine's: the thread
engine (:mod:`repro.runtime.threaded`) runs ``_step`` on worker threads
and replaces only ``_idle``, what a driver call does when nothing moved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.errors import (
    QuarantinedObjectError,
    SchedulerStalledError,
    TransactionAborted,
)
from repro.common.ids import NULL_TID
from repro.core.deadlock import DeadlockDetector
from repro.core.manager import TransactionManager
from repro.core.status import CODE_RUNS
from repro.runtime.program import (
    BLOCKED,
    TxnContext,
    commit_when_ended,
    execute_request,
)

# SchedulerStalledError lives in the unified taxonomy now
# (repro.common.errors) but remains importable from here, where its
# diagnostic rows (StalledTask) are built.
__all__ = [
    "CooperativeRuntime",
    "RunResult",
    "SchedulerStalledError",
    "StalledTask",
]


@dataclass
class StalledTask:
    """Diagnostic row for one stuck task inside a scheduler stall."""

    tid: object
    status: str
    pending: object = None  # the request parked at a WOULD_BLOCK point
    blocked_on: tuple = ()  # tids the last blocked attempt named

    def describe(self):
        waiting = (
            ", ".join(repr(t) for t in self.blocked_on)
            if self.blocked_on
            else "nothing reported"
        )
        pending = repr(self.pending) if self.pending is not None else "no request"
        return (
            f"{self.tid!r} [{self.status}]: pending {pending};"
            f" blocks on {waiting}"
        )


@dataclass
class RunResult:
    """Outcome of a top-level :meth:`CooperativeRuntime.run` call."""

    tid: object
    committed: bool
    value: object = None

    def __bool__(self):
        return self.committed


class _Task:
    """One running transaction program."""

    __slots__ = ("tid", "td", "gen", "pending", "to_send", "blocked_on")

    def __init__(self, td, gen):
        self.tid = td.tid
        self.td = td  # the live descriptor: status is read off it per step
        self.gen = gen
        self.pending = None  # request awaiting retry
        self.to_send = None  # result to send into the generator
        self.blocked_on = ()  # who the last WOULD_BLOCK outcome named


_NO_OUTCOME = (None, None)

# Fruitless rounds (nothing advanced, no deadlock victim) a blocked
# driver call tolerates before asking the watchdog, then raising.
MAX_IDLE_ROUNDS = 2


class CooperativeRuntime:
    """Deterministic scheduler over a :class:`TransactionManager`."""

    # Bumped on every manager event by the thread engine, whose waits
    # read it; nothing here ever waits, so here it stays 0.
    _wake_gen = 0

    def __init__(self, manager=None, seed=None, schedule=None,
                 watchdog=None):
        self.manager = manager if manager is not None else TransactionManager()
        # Unfinished tasks only, in spawn order (the round-robin basis);
        # a finished task leaves behind just its (result, error).
        self._tasks = {}
        self._outcomes = {}
        self._keys = {}  # tid -> routing key, spawned but not yet begun
        self._rng = random.Random(seed) if seed is not None else None
        # An explicit schedule controller (repro.chaos.explorer) decides
        # the task order at every round — and records what it decided, so
        # any interleaving replays exactly.  It overrides the seeded rng.
        self.schedule = schedule
        self._detector = DeadlockDetector(self.manager)
        # Resilience watchdog (repro.resilience): ticked every round,
        # offered one time-travel rescue before a stall raises.
        self.watchdog = watchdog
        self.steps = 0

    # ------------------------------------------------------------------
    # the paper-style driver API (every engine's: each waits in _idle)
    # ------------------------------------------------------------------

    def initiate(self, function, args=(), initiator=NULL_TID):
        """Register a transaction that will execute ``function``."""
        return self.manager.initiate(
            function=function, args=args, initiator=initiator
        )

    def begin(self, *tids):
        """Start initiated transactions, waiting while their begin
        dependencies are unresolved.  Returns 1 or 0: a refused begin
        with no blockers (already begun, or terminated), or of a
        transaction aborted while it waited, never succeeds."""
        while True:
            seen = self._wake_gen
            begun, blockers = self.manager.try_begin(*tids)
            if begun:
                for tid in tids:
                    self.on_begun(tid)
                return 1
            if not blockers or any(map(self.manager.has_aborted, tids)):
                return 0
            self._idle(seen, lambda: f"begin of {tids!r}")

    def commit(self, tid):
        """Commit ``tid``: wait until its outcome is final.  While its
        code runs there is nothing to ask (``commit_when_ended``'s rule,
        read off the descriptor): the engine just moves."""
        td = self.manager.table.get(tid)
        while True:
            seen = self._wake_gen
            if td.status not in CODE_RUNS:
                outcome = self.manager.try_commit(tid)
                if outcome.is_final:
                    return 1 if outcome else 0
            self._idle(seen, lambda: f"commit of {tid!r}")

    def wait(self, tid):
        """The paper's ``wait``: 1 once completed, 0 if aborted."""
        while True:
            seen = self._wake_gen
            result = self.manager.wait_outcome(tid)
            if result is not None:
                return 1 if result else 0
            self._idle(seen, lambda: f"wait for {tid!r}")

    def abort(self, tid):
        """Abort ``tid``; 1 on success, 0 if already committed."""
        return 1 if self.manager.abort(tid) else 0

    def commit_all(self, tids):
        """Commit a batch in *completion order*, returning {tid: 0/1}.

        Committing a fixed list in spawn order can wait forever on a
        transaction blocked behind a later, uncommitted one; draining
        completions avoids that driver-order deadlock.
        """
        outcomes = {}
        pending = [self.manager.table.get(tid) for tid in tids]
        while pending:
            seen = self._wake_gen
            waiting = []
            for td in pending:
                outcome = commit_when_ended(self.manager, td)
                if outcome.is_final:
                    outcomes[td.tid] = 1 if outcome else 0
                else:
                    waiting.append(td)
            if len(waiting) == len(pending):  # nobody settled this pass
                self._idle(
                    seen,
                    lambda: f"commit_all of {[td.tid for td in waiting]!r}",
                )
            pending = waiting
        return outcomes

    def run(self, function, args=(), key=None):
        """The standard transaction skeleton of section 3.1.1.

        ``initiate``, ``begin``, ``commit`` — and return a
        :class:`RunResult` with the program's return value.  ``key``
        places the tree as :meth:`spawn`'s does.
        """
        tid = self.initiate(function, args=args)
        if not tid:
            return RunResult(tid=tid, committed=False)
        if key is not None:
            self._keys[tid] = key
        self.begin(tid)
        committed = self.commit(tid)
        return RunResult(
            tid=tid, committed=bool(committed), value=self.result_of(tid)
        )

    def spawn(self, function, args=(), initiator=NULL_TID, key=None):
        """``initiate`` + ``begin`` without committing; returns the tid.
        ``key`` is a routing key: the thread engine runs the tree on its
        shard's worker; a single-threaded engine has one place for all."""
        tid = self.initiate(function, args=args, initiator=initiator)
        if tid:
            if key is not None:
                self._keys[tid] = key
            self.begin(tid)
        return tid

    def poll(self):
        """Let the system advance briefly; ``True`` if anything moved.

        Used by pollers (the workflow engine's race) that wait on a
        condition no single ``wait`` call expresses.
        """
        return self._idle(self._wake_gen)

    # ------------------------------------------------------------------
    # task management
    # ------------------------------------------------------------------

    def on_begun(self, tid):
        """Create the task for a transaction that just began."""
        if self._keys:
            self._keys.pop(tid, None)  # one thread: a key routes nothing
        if tid in self._tasks or tid in self._outcomes:
            return
        td = self.manager.table.get(tid)
        if td.function is None:
            # A transaction with no program (driver-managed); no task.
            self.manager.note_completed(tid)
            return
        ctx = TxnContext(tid, parent=td.parent)
        gen = td.function(ctx, *td.args)
        self._tasks[tid] = _Task(td, gen)

    def _retire(self, task, result=None, error=None):
        """A finished task (and its generator) leaves the scheduler;
        only its outcome stays reachable."""
        self._outcomes[task.tid] = (result, error)
        del self._tasks[task.tid]

    def result_of(self, tid):
        """The return value of ``tid``'s program (None if none)."""
        return self._outcomes.get(tid, _NO_OUTCOME)[0]

    def error_of(self, tid):
        """The exception that aborted ``tid``'s program, if any."""
        return self._outcomes.get(tid, _NO_OUTCOME)[1]

    def active_tasks(self):
        """Tids of tasks that have not finished, in spawn order."""
        return list(self._tasks)

    # ------------------------------------------------------------------
    # the scheduler
    # ------------------------------------------------------------------

    def round(self):
        """Give every unfinished task one step; return whether any moved.

        The order of the steps within the round is the interleaving
        decision: schedule controller first (recorded, replayable), then
        the seeded rng, then plain spawn-order round-robin.
        """
        if self.watchdog is not None:
            self.watchdog.on_round()
        if not self._tasks:
            return False
        tasks = list(self._tasks.values())
        if self.schedule is not None and tasks:
            order = {tid: i for i, tid in
                     enumerate(self.schedule.arrange([t.tid for t in tasks]))}
            tasks.sort(key=lambda task: order[task.tid])
        elif self._rng is not None:
            self._rng.shuffle(tasks)
        progress = False
        for task in tasks:
            progress |= self._step(task)
        return progress

    def run_until_quiescent(self):
        """Schedule until no task can move (deadlocks get resolved)."""
        while True:
            if not self.round():
                if self._detector.resolve_one() is None:
                    if self._watchdog_rescue():
                        continue
                    return

    def _watchdog_rescue(self):
        """One shot of watchdog time travel when the schedule is wedged."""
        if self.watchdog is None:
            return False
        return self.watchdog.on_stall()

    def _idle(self, seen, why=None):
        """The engine's one "nothing moved" hook, where every driver call
        that waits, waits.  Here: drive one round, or a deadlock victim,
        or the watchdog.  Given ``why`` (a driver call that cannot go on
        without progress) it insists, ``MAX_IDLE_ROUNDS`` more, and then
        raises :class:`SchedulerStalledError` saying ``why()`` — formatted
        only then, so the loops that call this every pass pay for no
        ``repr``.  ``seen``, the wake generation read before the caller's
        test, is the thread engine's: a single thread has nothing to wait
        for."""
        if self.round() or self._detector.resolve_one() is not None:
            return True
        if why is None:
            return self._watchdog_rescue()
        idle = 0
        while idle < MAX_IDLE_ROUNDS:
            if self.round() or self._detector.resolve_one() is not None:
                return True
            idle += 1
        if self._watchdog_rescue():
            return True
        raise SchedulerStalledError(why(), stalled=self.stall_report())

    def stall_report(self):
        """Diagnostic rows for every unfinished task (who blocks on what)."""
        rows = []
        for tid, task in self._tasks.items():
            td = self.manager.table.maybe_get(tid)
            status = td.status.value if td is not None else "unknown"
            rows.append(
                StalledTask(
                    tid=tid,
                    status=status,
                    pending=task.pending,
                    blocked_on=tuple(task.blocked_on),
                )
            )
        return rows

    def _step(self, task):
        """Advance one task by (at most) one request.  True on progress."""
        self.steps += 1
        manager = self.manager

        # Deliver an externally caused abort into the program; the task
        # retires with it, so it is delivered once.
        if task.td.status.is_abort_bound:
            error = None
            try:
                task.gen.throw(TransactionAborted(task.tid))
            except (StopIteration, TransactionAborted):
                pass
            except Exception as exc:  # program mishandled the signal
                error = exc
            self._retire(task, error=error)
            return True

        if task.pending is not None:
            try:
                state, value = execute_request(
                    manager, self, task.tid, task.pending
                )
            except QuarantinedObjectError as exc:
                return self._fail(task, exc, f"poisoned: {exc}")
            except TransactionAborted:  # by another thread, since the check
                return True  # the next step delivers it
            if state is BLOCKED:
                task.blocked_on = tuple(value) if value else ()
                return False
            task.pending = None
            task.to_send = value
            task.blocked_on = ()
            return True

        # Advance the generator to its next request.
        try:
            request = task.gen.send(task.to_send)
            task.to_send = None
        except StopIteration as stop:
            self._retire(task, result=stop.value)
            manager.note_completed(task.tid)
            return True
        except TransactionAborted:
            self._retire(task)
            return True
        except Exception as exc:
            self._retire(task, error=exc)
            manager.abort(task.tid, reason=f"program raised {exc!r}")
            return True

        try:
            state, value = execute_request(manager, self, task.tid, request)
        except QuarantinedObjectError as exc:
            return self._fail(task, exc, f"poisoned: {exc}")
        except TransactionAborted:
            return True
        if state is BLOCKED:
            task.pending = request
            task.blocked_on = tuple(value) if value else ()
        else:
            task.to_send = value
            task.blocked_on = ()
        # Aborting oneself ends the program: nothing after the abort of
        # self should run (the paper's abort(self()) idiom).
        if task.td.status.is_abort_bound:
            self._retire(task)
            task.gen.close()
        return True

    def _fail(self, task, exc, reason):
        """Fail the task with ``exc`` and abort its transaction rather
        than propagate garbage (or crash the scheduler loop): a
        quarantined-object touch poisons it; on a worker thread, any
        error a request raised for it."""
        self._retire(task, error=exc)
        self.manager.abort(task.tid, reason=reason)
        task.gen.close()
        return True
