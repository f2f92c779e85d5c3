"""The workflow engine.

Runs a :class:`~repro.workflow.spec.WorkflowSpec` over a runtime using
the section 3 translation schemes:

* sequential alternatives → the contingent scheme (try in order until one
  commits);
* racing alternatives → the appendix's car-rental pattern (begin all,
  first to complete wins, losers aborted, winner committed);
* required-task failure → backward recovery: compensations of committed
  tasks, in reverse order, retried until they commit (the saga
  discipline);
* optional-task failure → the workflow proceeds.

The engine needs only the paper-style driver API (``initiate``, ``begin``,
``commit``, ``wait``, ``abort``) plus ``poll``, so it runs on either
runtime.

Every run is one :class:`~repro.workflow.execution.WorkflowExecution`
record, changed only through :func:`~repro.workflow.execution.apply` —
the function the fold uses.  Durability is read off the input:
:meth:`WorkflowEngine.execute` runs an anonymous spec no restart could
look the bodies up for, so nothing is logged and the record is returned,
not retained; :meth:`WorkflowEngine.start` runs a registered
:class:`~repro.workflow.definition.WorkflowDefinition` the log can name,
so every transition is force-logged first (:mod:`repro.workflow.records`)
and a site crash mid-workflow loses nothing: restart recovery replays
the data log, :meth:`WorkflowEngine.recover` folds the workflow records
back into execution images, and :meth:`WorkflowEngine.resume` continues
each in-flight execution from its last durable step.

The durable protocol is ``start`` / ``resume`` / ``cancel`` / ``signal``
/ ``status``:

* ``start`` makes the execution durable and drives it until it reaches a
  terminal status or parks on a signal wait;
* ``signal`` durably delivers a named signal (and, by default, resumes a
  parked execution);
* ``resume`` continues forward progress — after recovery, or after a
  caller chose ``signal(..., resume=False)``;
* ``cancel`` durably accepts a cancel request, compensates every
  committed step (saga discipline), and finishes ``cancelled``;
* ``status`` reports the :class:`~repro.workflow.execution
  .ExecutionStatus`.

Crash-consistency contract (the part worth reading twice): a forward
step logs a forced ``step_attempt`` record *before* committing its
transaction, and recovery counts the step as committed **iff one of its
attempt tids is a winner of the data-log replay**.  There is no separate
"step committed" marker — a marker would need to be atomic with the
commit record, and it cannot be; deriving the answer from the commit
record itself closes that window.  A crash between attempt and commit
leaves a dangling attempt naming a loser tid; restart recovery undoes
that transaction's effects, the fold ignores the attempt, and resume
re-issues the step from scratch.  Compensations follow the same
discipline with ``comp_attempt`` records.

Signal-wait timers are armed on an engine-owned
:class:`~repro.resilience.deadlines.DeadlineTable` over the runtime's
logical clock, and *re-armed with their full budget* on recovery (the
logical clock restarts with the process; a fresh budget is the
conservative reading of "the timer survives the crash").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.common.clock import LogicalClock
from repro.common.errors import AssetError, RetryExhausted, TransientError
from repro.common.ids import Tid
from repro.resilience.deadlines import DeadlineTable
from repro.workflow import records as wrecords
from repro.workflow.definition import DefinitionRegistry, WorkflowDefinition
from repro.workflow.execution import (
    ExecutionStatus,
    TaskStatus,
    WorkflowExecution,
    apply,
    fold_all,
)

# A race (or a parallel round) that polls this many times with nothing
# moving has stalled; a compensation that fails this many times breaks
# the saga assumption that compensations eventually commit.
MAX_IDLE_POLLS = 1000
MAX_COMPENSATION_RETRIES = 100


@dataclass(frozen=True)
class _WaitToken:
    """Deadline-table key for one execution's signal-wait timer."""

    wid: int

    @property
    def value(self):
        # DeadlineTable orders its keys by .value; reuse the wid.
        return self.wid


class ExecutionLeaseBoard:
    """Shared ownership leases over durable workflow executions.

    One board per storage stack, shared by every engine instance that
    can drive the stack's executions.  Whoever is driving an execution
    heartbeats its lease (every durable record the engine writes counts
    as a heartbeat — progress *is* liveness); a rival engine instance
    may only claim the execution once that lease has lapsed, which is
    the workflow-level analogue of the cluster's coordinator lease: a
    crashed or wedged owner loses the execution to whoever calls
    ``recover()``/``resume()`` next, and a live owner cannot be usurped.
    """

    def __init__(self, clock):
        self.table = DeadlineTable(clock)
        self._owners = {}  # wid -> engine owner name

    def claim(self, wid, owner, ttl):
        """Claim (or refresh) ownership; False while a rival lease lives."""
        current = self._owners.get(wid)
        if (
            current is not None
            and current != owner
            and self.table.lease_live(_WaitToken(wid))
        ):
            return False
        self._owners[wid] = owner
        self.table.grant_lease(_WaitToken(wid), ttl)
        return True

    def heartbeat(self, wid, owner):
        """Refresh the lease; False if ``owner`` no longer holds it."""
        if self._owners.get(wid) != owner:
            return False
        return self.table.heartbeat(_WaitToken(wid))

    def owner_of(self, wid):
        return self._owners.get(wid)

    def live(self, wid):
        return self.table.lease_live(_WaitToken(wid))

    def release(self, wid, owner):
        """Let the lease go (terminal execution); no-op for non-owners.

        The owner *name* stays on the board with a dead lease: a later
        claimant can tell it is taking over from someone (and must
        re-read the durable truth) rather than claiming fresh.
        """
        if self._owners.get(wid) == owner:
            self.table.forget(_WaitToken(wid))


class WorkflowEngine:
    """Runs workflow specs and definitions over a transaction runtime.

    With ``execute(spec, parallel=True)``, tasks whose dependencies are
    satisfied run *concurrently* (alternatives stay ordered within each
    task); the default executes tasks strictly in dependency order.  On
    success the two modes are outcome-identical.  On failure they can
    differ for tasks *independent* of the failing one: the sequential
    driver never starts them (SKIPPED), while the parallel driver may
    have already committed them — and then compensates those that carry
    a compensation.  The equivalence boundary is pinned down by the
    workflow property suite.
    """

    def __init__(self, runtime, registry=None, *, retry=None, watchdog=None,
                 metrics=None, on_commit=None, owner="engine", leases=None,
                 execution_lease=32):
        self.runtime = runtime
        self.registry = DefinitionRegistry() if registry is None else registry
        self.storage = runtime.manager.storage
        # A repro.resilience.RetryPolicy for *transient* commit failures
        # (injected device faults) on sequential-alternative and
        # compensation commits.  ``None`` keeps classic propagate-on-error
        # behavior; an exhausted budget on an alternative moves to the
        # next alternative.
        self.retry = retry
        # Race losers whose abort kept failing.  They are recorded here
        # and handed to the watchdog (self.watchdog, or the runtime's if
        # resilience is installed) as orphans instead of leaking.
        self.watchdog = watchdog
        self.orphaned = []
        self.metrics = metrics
        # Execution-ownership leases (None = single-engine deployment,
        # no fencing).  ``owner`` names this instance on the shared
        # board; ``execution_lease`` is the heartbeat budget in ticks.
        self.owner = owner
        self.leases = leases
        self.execution_lease = execution_lease
        # Called with the tid of every step/compensation transaction the
        # engine successfully committed — the chaos harness's truthful
        # acknowledgement hook.
        self.on_commit = on_commit
        clock = getattr(runtime.manager, "clock", None)
        self.clock = clock if clock is not None else LogicalClock()
        # Engine-owned timer table: workflow wait tokens are not
        # transactions, so they must not share the resilience kit's
        # table (the watchdog would prune them as unknown tids).
        self.deadlines = DeadlineTable(self.clock)
        self.stats = {
            "started": 0,
            "completed": 0,
            "compensated": 0,
            "cancelled": 0,
            "recovered": 0,
            "steps_committed": 0,
            "compensations": 0,
            "signals": 0,
            "timeouts": 0,
        }
        self.timeline = []  # per-execution trace rows (obs export)
        # Called with (wid, kind, fields) after every workflow record —
        # the seam the observability kit hangs spans off.
        self.on_record = None
        self._executions = {}  # wid -> image; durable executions only
        # The wid high-water mark is learnt from the log by the first
        # start() / recover(): an engine that only executes reads no log.
        self._next_wid = None
        # Anonymous executions' wids (span and timer keys): -1, -2, ...
        self._anonymous = itertools.count(-1, -1)

    # -- bookkeeping -------------------------------------------------------

    def _count(self, key, amount=1):
        self.stats[key] += amount
        if self.metrics is not None:
            self.metrics.inc(f"workflow.{key}", amount)

    def _claim(self, wid):
        """Take (or refresh) the execution's ownership lease, or refuse.

        Raises when another engine instance holds a live lease — the
        double-resume guard: two engines recovering the same storage
        cannot both drive one execution.  A successful claim that
        *takes over* from another owner re-folds the execution from the
        durable log first: the previous owner may have progressed past
        this engine's in-memory image before going quiet.  Returns the
        image to drive (``None`` before ``start`` has made one).
        """
        if self.leases is not None:
            previous = self.leases.owner_of(wid)
            if not self.leases.claim(wid, self.owner, self.execution_lease):
                raise AssetError(
                    f"wid={wid} is owned by {self.leases.owner_of(wid)!r}"
                    f" under a live lease; this engine ({self.owner!r}) must"
                    f" wait for it to lapse"
                )
            if previous is not None and previous != self.owner:
                # Replace the in-memory image with the durable log's truth.
                execution = self._fold().get(wid)
                if execution is not None:
                    self._executions[wid] = execution
        return self._executions.get(wid)

    def _fold(self):
        """wid → execution image, folded from the log's index alone: what
        it keeps of each execution, and which step transactions won."""
        return fold_all(*self.storage.log.workflows())

    def _record(self, execution, kind, **fields):
        """The one way an execution's image changes.

        An execution that names a registered definition is recoverable,
        so its record is forced to the log *before* anything acts on it;
        an anonymous one has nothing a restart could resume, so nothing
        is logged.  Either way the record is then applied to the image
        by the function the fold uses.
        """
        wid = execution.wid
        if execution.definition:
            # An attempt names its transaction: the log keeps its outcome.
            self.storage.log_workflow(
                wid, kind, payload=wrecords.encode_payload(fields),
                tid=Tid(fields.get("tid", 0)),
            )
            if self.leases is not None:
                # Durable progress doubles as the ownership heartbeat.
                self.leases.heartbeat(wid, self.owner)
        parked = execution.status is ExecutionStatus.WAITING_SIGNAL
        apply(execution, kind, fields)
        if parked and execution.status is not ExecutionStatus.WAITING_SIGNAL:
            self.deadlines.forget(_WaitToken(wid))  # the wait's timer
        self.timeline.append(
            {"tick": self.clock.peek(), "wid": wid, "kind": kind, **fields}
        )
        if self.on_record is not None:
            self.on_record(wid, kind, fields)

    def _committed(self, execution, step, tid, alt=None):
        """What no record can carry: this step's commit has returned.

        The attempt record went out ahead of the commit, so the live
        image learns the outcome here (the fold learns it from the data
        log's winners): COMMITTED by alternative ``alt``, or — for a
        compensation, which names none — COMPENSATED.
        """
        state = execution.steps[step]
        if alt is None:
            state.status = TaskStatus.COMPENSATED
        else:
            state.status, state.alt = TaskStatus.COMMITTED, alt
            state.tid_value = int(tid)
            state.value = self.runtime.result_of(tid)
        self._count("compensations" if alt is None else "steps_committed")
        if self.on_commit is not None:
            self.on_commit(tid)
        return True

    def _arm_wait(self, execution):
        """Arm the parked execution's timer with its full budget."""
        if execution.wait_timeout is not None:
            self.deadlines.set_deadline(
                _WaitToken(execution.wid), budget=execution.wait_timeout
            )

    # -- the protocol ------------------------------------------------------

    def execute(self, spec, parallel=False):
        """Run an anonymous ``spec`` to the end; returns its record.

        The :class:`WorkflowExecution` *is* the result (``success``,
        ``status_of``, ``steps[name].alt / .value / .tid_value``,
        ``compensated_steps()``).  Nothing could resume it after a
        restart, so it is neither logged nor retained.
        """
        spec.validate()
        execution = WorkflowExecution(wid=next(self._anonymous))
        self._record(execution, wrecords.STARTED, definition="", context={})
        self._count("started")
        drive = self._drive_parallel if parallel else self._drive
        drive(execution, WorkflowDefinition(spec.name, spec))
        return execution

    def start(self, definition_name, wid=None, context=None):
        """Create a durable execution and drive it; returns its wid."""
        definition = self.registry.get(definition_name)  # fail fast
        if self._next_wid is None:
            self._next_wid = self.storage.log.max_wid_value() + 1
        if wid is None:
            wid = self._next_wid
        if wid in self._executions:
            raise AssetError(f"workflow execution wid={wid} already exists")
        self._next_wid = max(self._next_wid, wid + 1)
        self._claim(wid)
        execution = WorkflowExecution(wid=wid, definition=definition_name)
        self._executions[wid] = execution
        self._record(
            execution, wrecords.STARTED,
            definition=definition_name, context=dict(context or {}),
        )
        self._count("started")
        self._drive(execution, definition)
        return wid

    def status(self, wid):
        """The execution's :class:`ExecutionStatus`."""
        return self.execution(wid).status

    def execution(self, wid):
        """The :class:`WorkflowExecution` image."""
        if wid not in self._executions:
            raise AssetError(f"unknown workflow execution: wid={wid}")
        return self._executions[wid]

    def executions(self):
        """wid → execution, every durable execution this engine knows."""
        return dict(self._executions)

    def resume(self, wid):
        """Continue forward progress; no-op on terminal or parked runs."""
        execution = self.execution(wid)
        if execution.status.is_terminal:
            return execution.status
        if execution.status is ExecutionStatus.WAITING_SIGNAL:
            return execution.status
        return self._drive(self._claim(wid))

    def signal(self, wid, name, payload=None, resume=True):
        """Durably deliver signal ``name``; resumes a matching wait."""
        execution = self.execution(wid)
        if execution.status.is_terminal:
            return execution.status
        execution = self._claim(wid)  # may have re-folded
        if execution.status.is_terminal:
            return execution.status
        awaited = (
            execution.status is ExecutionStatus.WAITING_SIGNAL
            and execution.waiting_signal == name
        )
        self._record(execution, wrecords.SIGNAL, name=name, payload=payload)
        self._count("signals")
        if awaited and resume:
            return self._drive(execution)
        return execution.status

    def cancel(self, wid):
        """Durably accept a cancel: compensate and finish ``cancelled``."""
        execution = self.execution(wid)
        if execution.status.is_terminal:
            return execution.status
        execution = self._claim(wid)  # may have re-folded
        if execution.status.is_terminal:
            return execution.status
        self._record(execution, wrecords.CANCELLED)
        return self._finish_backward(
            execution, self.registry.get(execution.definition),
            wrecords.OUTCOME_CANCELLED,
        )

    def expire_wait(self, wid):
        """Fire a parked execution's wait timer (deterministic time travel).

        Advances the logical clock to the armed deadline — the same
        stall-rescue jump the watchdog performs — then applies the
        wait's ``on_timeout`` policy.
        """
        execution = self.execution(wid)
        if execution.status is not ExecutionStatus.WAITING_SIGNAL:
            return execution.status
        if execution.wait_timeout is None:
            raise AssetError(
                f"wid={wid} waits on {execution.waiting_signal!r} with no"
                " timeout; deliver the signal or cancel"
            )
        execution = self._claim(wid)  # may have re-folded
        if execution.status is not ExecutionStatus.WAITING_SIGNAL:
            return execution.status
        deadline = self.deadlines.deadline_of(_WaitToken(wid))
        if deadline is not None:
            self.clock.advance_to(deadline)
        step = execution.waiting_step
        skip = execution.wait_on_timeout == "skip"
        self._record(
            execution, wrecords.SIGNAL_TIMEOUT,
            step=step, signal=execution.waiting_signal,
        )
        self._count("timeouts")
        fate = wrecords.STEP_SKIPPED if skip else wrecords.STEP_FAILED
        self._record(execution, fate, step=step)
        # The drive reads the step's fate off the image: skipped or
        # optional moves on, a failed required step goes backward.
        return self._drive(execution)

    # -- recovery ----------------------------------------------------------

    def recover(self):
        """Rebuild executions from the log's index; returns in-flight wids.

        Call after storage restart recovery has run and the site's
        definitions are re-registered.  A finished execution comes back
        from its ``finished`` record alone: its status and outcome.
        Parked executions get their wait timers re-armed with the full
        budget; callers then drive each returned wid with :meth:`resume`
        / :meth:`signal` / :meth:`expire_wait`.
        """
        recovered = []
        for wid, execution in sorted(self._fold().items()):
            self._executions[wid] = execution
            self._next_wid = max(self._next_wid or 1, wid + 1)
            if execution.status.is_terminal:
                continue
            if execution.definition:
                self.registry.get(execution.definition)  # must be present
            if execution.status is ExecutionStatus.WAITING_SIGNAL:
                self._arm_wait(execution)
            self._count("recovered")
            recovered.append(wid)
        return recovered

    # -- driving -----------------------------------------------------------

    def _drive(self, execution, definition=None):
        """Run forward from the last recorded step; park, finish, or fail.

        ``definition`` is given for an anonymous spec; a registered one
        is looked up by the name the records carry.
        """
        if execution.status.is_terminal:
            return execution.status
        if definition is None:
            definition = self.registry.get(execution.definition)
        if execution.cancel_requested:
            # A durably accepted cancel interrupted by a crash must
            # resume as a cancel: never make forward progress again.
            return self._finish_backward(
                execution, definition, wrecords.OUTCOME_CANCELLED
            )
        for task in definition.spec.ordered():
            wait = definition.waits.get(task.name)
            if execution.status_of(task.name) is not None:
                pass  # settled before this drive (a resume)
            elif any(
                execution.status_of(dep) is not TaskStatus.COMMITTED
                for dep in task.depends_on
            ):
                self._lose(execution, task)
            elif wait is not None and wait.signal not in execution.signals:
                self._record(
                    execution, wrecords.SIGNAL_WAIT,
                    step=task.name, signal=wait.signal,
                    timeout=wait.timeout, on_timeout=wait.on_timeout,
                )
                self._arm_wait(execution)
                return execution.status
            else:
                self._run_step(execution, task)
            failed = execution.status_of(task.name) is TaskStatus.FAILED
            if failed and not task.optional:
                return self._finish_backward(
                    execution, definition, wrecords.OUTCOME_COMPENSATED
                )
        return self._finish(execution, wrecords.OUTCOME_COMPLETED)

    def _drive_parallel(self, execution, definition):
        """Overlap independent tasks; see the class docstring.

        Each task is a little state machine: waiting (dependencies
        unresolved) → in flight (an alternative's transaction is live) →
        COMMITTED / FAILED / SKIPPED on the image.  One driver loop
        advances every task, polling the runtime when nothing
        transitions.
        """
        manager = self.runtime.manager
        spec = definition.spec
        flights = {}  # task name -> [(tid, alternative)] in flight
        tried = {}    # task name -> launches so far
        attempted = set()  # winners whose attempt is recorded

        def launch(task):
            """Begin the next alternative (a race: all of them, once); a
            task with none left, or none that starts, has failed."""
            index = tried.get(task.name, 0)
            tried[task.name] = index + 1
            if task.race:
                entrants = () if index else task.alternatives
            else:
                entrants = task.alternatives[index:index + 1]
            entries = self._begin(entrants)
            if entries:
                flights[task.name] = entries
            else:
                self._record(execution, wrecords.STEP_FAILED, step=task.name)

        def settle(task):
            """Advance a task in flight; True when its state changed."""
            name = task.name
            winner, still = self._race_round(task, flights[name])
            if winner is not None:
                tid, alternative = winner
                if tid not in attempted:  # once, however long commit blocks
                    attempted.add(tid)
                    self._attempt(execution, task, tid, alternative)
                outcome = manager.try_commit(tid)
                if not outcome.is_final:
                    return False  # commit blocked: try again next round
                still = []  # committed, or aborted at commit time
            flights[name] = still
            if still:
                return False
            del flights[name]
            if winner is not None and outcome:
                self._committed(execution, name, tid, alternative.label)
            else:
                launch(task)  # everyone in flight died
            return True

        idle = 0
        while True:
            progressed = waiting = False
            for task in spec:
                if task.name in flights:
                    progressed |= settle(task)
                elif execution.status_of(task.name) is None:
                    deps = {execution.status_of(d) for d in task.depends_on}
                    if deps <= {TaskStatus.COMMITTED}:
                        launch(task)
                        progressed = True
                    elif deps <= {TaskStatus.COMMITTED, None}:
                        waiting = True  # on a dependency still in flight
                    else:
                        self._lose(execution, task)
                        progressed = True
            if any(
                execution.status_of(task.name) is TaskStatus.FAILED
                and not task.optional
                for task in spec
            ):
                # A required task is lost: abandon whatever is in flight.
                for name, entries in flights.items():
                    for tid, __ in entries:
                        self._abort_loser(tid, name)
                return self._finish_backward(
                    execution, definition, wrecords.OUTCOME_COMPENSATED
                )
            if not flights and not waiting:
                return self._finish(execution, wrecords.OUTCOME_COMPLETED)
            if not progressed and not self.runtime.poll():
                idle += 1
                if idle > MAX_IDLE_POLLS:
                    raise AssetError(
                        f"parallel workflow {spec.name!r} stalled"
                    )

    def _lose(self, execution, task):
        """A step one of whose dependencies did not commit never runs.

        Optional: skipped.  Required: FAILED, and as a record — the
        workflow fails with it, and a resume after a crash must agree
        and never walk past it.
        """
        kind = wrecords.STEP_SKIPPED if task.optional else wrecords.STEP_FAILED
        self._record(execution, kind, step=task.name)

    def _finish(self, execution, outcome):
        """Record the terminal verdict; the stats key is the outcome."""
        self._record(execution, wrecords.FINISHED, outcome=outcome)
        self._count(outcome)
        if self.leases is not None:
            self.leases.release(execution.wid, self.owner)
        return execution.status

    # -- step execution ----------------------------------------------------

    def _commit_step(self, tid, op):
        """Commit one workflow step under the engine's retry policy."""
        if self.retry is None:
            return self.runtime.commit(tid)
        return self.retry.run(
            lambda: self.runtime.commit(tid), op=op, tid=tid
        )

    def _abort_loser(self, tid, task_name):
        """Abort a race loser without ever leaking it.

        A transient abort failure is retried under the engine's retry
        policy; if the budget runs out (or no policy is wired) the loser
        is recorded as an orphan and handed to the watchdog with an
        already-expired deadline, so the next scan reaps it rather than
        letting a live transaction sit on its locks forever.
        """
        try:
            if self.retry is None:
                self.runtime.abort(tid)
            else:
                self.retry.run(
                    lambda: self.runtime.abort(tid),
                    op=f"workflow.{task_name}.abort_loser",
                    tid=tid,
                )
        except (TransientError, RetryExhausted):
            self.orphaned.append(tid)
            watchdog = self.watchdog
            if watchdog is None:
                watchdog = getattr(self.runtime, "watchdog", None)
            if watchdog is not None:
                watchdog.table.set_deadline(tid, budget=0)

    def _begin(self, alternatives):
        """Initiate and begin ``alternatives``; the ``(tid, alternative)``
        entries that started."""
        entries = []
        for alternative in alternatives:
            tid = self.runtime.initiate(alternative.body, args=alternative.args)
            if tid and self.runtime.begin(tid):
                entries.append((tid, alternative))
        return entries

    def _attempt(self, execution, task, tid, alternative):
        """Record that ``alternative`` is about to commit ``tid``.

        The attempt is recorded (for a durable execution: forced to the
        log) BEFORE the commit: see the module docstring.
        """
        self._record(
            execution, wrecords.STEP_ATTEMPT,
            step=task.name, alt=alternative.label, tid=int(tid),
        )

    def _run_step(self, execution, task):
        """One step by its scheme, to an outcome on the image."""
        run = self._try_race if task.race else self._try_sequential
        if not run(execution, task):
            self._record(execution, wrecords.STEP_FAILED, step=task.name)

    def _try_sequential(self, execution, task):
        """Contingent semantics over the task's alternatives."""
        for alternative in task.alternatives:
            tid = self.runtime.initiate(alternative.body, args=alternative.args)
            if not tid or not self.runtime.begin(tid):
                continue
            self._attempt(execution, task, tid, alternative)
            try:
                committed = self._commit_step(
                    tid, op=f"workflow.{task.name}.{alternative.label}"
                )
            except RetryExhausted:
                continue  # budget spent on this alternative; try the next
            if committed:
                return self._committed(
                    execution, task.name, tid, alternative.label
                )
        return False

    def _race_round(self, task, entries):
        """One look at racing ``(tid, alternative)`` entries.

        Returns ``(winner, still_running)``: the first completed entry
        that may win (pacers may not), and the entries still in flight.
        Completed entries barred from winning are aborted here, and so
        is everyone still running once there is a winner; entries that
        aborted on their own just drop out.
        """
        manager = self.runtime.manager
        winner = None
        still_running = []
        for tid, alternative in entries:
            outcome = manager.wait_outcome(tid)
            if outcome is True and winner is None and not alternative.pacer:
                winner = (tid, alternative)
            elif outcome is None:
                still_running.append((tid, alternative))
            elif outcome is True:
                # Completed but barred from winning: a pacer, or a
                # second finisher.  Pure loser either way.
                self._abort_loser(tid, task.name)
        if winner is not None:
            for other_tid, __ in still_running:
                self._abort_loser(other_tid, task.name)
        return winner, still_running

    def _try_race(self, execution, task):
        """Race all alternatives; first completion wins, losers abort."""
        entries = self._begin(task.alternatives)
        idle = 0
        while entries:
            winner, entries = self._race_round(task, entries)
            if winner is not None:
                tid, alternative = winner
                self._attempt(execution, task, tid, alternative)
                if self.runtime.commit(tid):
                    return self._committed(
                        execution, task.name, tid, alternative.label
                    )
                break  # winner failed to commit: everyone is gone
            if entries and not self.runtime.poll():
                idle += 1
                if idle > MAX_IDLE_POLLS:
                    raise AssetError(
                        f"race in task {task.name!r} made no progress"
                    )
        return False

    # -- backward recovery -------------------------------------------------

    def _finish_backward(self, execution, definition, outcome):
        """Compensate every committed step (newest first), then finish."""
        tasks = {task.name: task for task in definition.spec}
        for name in reversed(execution.committed_steps()):
            alt = execution.steps[name].alt
            body, args = tasks[name].compensation_for(alt)
            if body is not None:
                self._compensate_step(execution, name, body, args)
        return self._finish(execution, outcome)

    def _compensate_step(self, execution, name, body, args):
        """Run one compensation until it commits.

        Each attempt is a fresh transaction, recorded ahead of its
        commit.  An exhausted retry budget propagates from an anonymous
        execution; a durable one has durably decided to go backward, so
        it spends another attempt instead of leaving the execution
        half-compensated.
        """
        attempts = 0
        while True:
            attempts += 1
            if attempts > MAX_COMPENSATION_RETRIES:
                raise AssetError(
                    f"compensation of task {name!r} failed"
                    f" {MAX_COMPENSATION_RETRIES} times"
                )
            ct = self.runtime.initiate(body, args=args)
            if not ct:
                continue
            self.runtime.begin(ct)
            self._record(
                execution, wrecords.COMP_ATTEMPT, step=name, tid=int(ct)
            )
            try:
                if self._commit_step(ct, op=f"workflow.c.{name}"):
                    return self._committed(execution, name, ct)
            except RetryExhausted:
                if not execution.definition:
                    raise
