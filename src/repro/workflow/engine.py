"""The workflow engine.

Executes a :class:`~repro.workflow.spec.WorkflowSpec` over a runtime using
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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import AssetError, RetryExhausted, TransientError


class TaskStatus(enum.Enum):
    """Terminal status of one workflow task."""

    COMMITTED = "committed"
    FAILED = "failed"
    SKIPPED = "skipped"
    COMPENSATED = "compensated"


@dataclass
class TaskOutcome:
    """What happened to one task."""

    name: str
    status: TaskStatus
    label: str = ""  # which alternative won
    value: object = None
    tid: object = None


@dataclass
class WorkflowResult:
    """Outcome of a workflow execution."""

    name: str
    success: bool
    outcomes: dict = field(default_factory=dict)
    compensation_order: list = field(default_factory=list)

    def __bool__(self):
        return self.success

    def status_of(self, task_name):
        """The :class:`TaskStatus` of ``task_name``."""
        return self.outcomes[task_name].status


# A race (or a parallel round) that polls this many times with nothing
# moving has stalled; a compensation that fails this many times breaks
# the saga assumption that compensations eventually commit.
MAX_IDLE_POLLS = 1000
MAX_COMPENSATION_RETRIES = 100


class StepStrategies:
    """The section 3 step strategies, shared by both workflow engines.

    One implementation of "commit under the retry policy", "abort a
    race loser without leaking it", the contingent and race schemes and
    the retried compensation.  The durable engine differs from the
    in-memory one only in what it forces to the log *before* each
    commit, so every strategy takes a ``before_commit`` callback (the
    in-memory engine passes none).
    """

    def __init__(self, runtime, retry=None, watchdog=None):
        self.runtime = runtime
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

    def _committed(self, task, alternative, tid):
        return TaskOutcome(
            name=task.name,
            status=TaskStatus.COMMITTED,
            label=alternative.label,
            value=self.runtime.result_of(tid),
            tid=tid,
        )

    def _try_sequential(self, task, before_commit=None):
        """Contingent semantics over the task's alternatives.

        ``before_commit(task, alternative, tid)`` runs once the
        alternative's transaction has begun, ahead of its commit.
        """
        for alternative in task.alternatives:
            tid = self.runtime.initiate(alternative.body, args=alternative.args)
            if not tid or not self.runtime.begin(tid):
                continue
            if before_commit is not None:
                before_commit(task, alternative, tid)
            try:
                committed = self._commit_step(
                    tid, op=f"workflow.{task.name}.{alternative.label}"
                )
            except RetryExhausted:
                continue  # budget spent on this alternative; try the next
            if committed:
                return self._committed(task, alternative, tid)
        return TaskOutcome(name=task.name, status=TaskStatus.FAILED)

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

    def _try_race(self, task, before_commit=None):
        """Race all alternatives; first completion wins, losers abort."""
        entries = []
        for alternative in task.alternatives:
            tid = self.runtime.initiate(alternative.body, args=alternative.args)
            if tid and self.runtime.begin(tid):
                entries.append((tid, alternative))
        idle = 0
        while entries:
            winner, entries = self._race_round(task, entries)
            if winner is not None:
                tid, alternative = winner
                if before_commit is not None:
                    before_commit(task, alternative, tid)
                if self.runtime.commit(tid):
                    return self._committed(task, alternative, tid)
                break  # winner failed to commit: everyone is gone
            if entries and not self.runtime.poll():
                idle += 1
                if idle > MAX_IDLE_POLLS:
                    raise AssetError(
                        f"race in task {task.name!r} made no progress"
                    )
        return TaskOutcome(name=task.name, status=TaskStatus.FAILED)

    def _compensate_task(self, name, body, args, before_commit=None,
                         reissue_exhausted=False):
        """Run one compensation until it commits; returns its tid.

        Each attempt is a fresh transaction (``before_commit(tid)`` sees
        it ahead of its commit).  An exhausted retry budget propagates —
        unless ``reissue_exhausted``: the durable engine has already
        durably decided to go backward, so it spends another attempt
        instead of leaving the execution half-compensated.
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
            if before_commit is not None:
                before_commit(ct)
            try:
                if self._commit_step(ct, op=f"workflow.c.{name}"):
                    return ct
            except RetryExhausted:
                if not reissue_exhausted:
                    raise


class WorkflowEngine(StepStrategies):
    """Runs workflow specs over a transaction runtime.

    With ``parallel=True``, tasks whose dependencies are satisfied run
    *concurrently* (alternatives stay ordered within each task); the
    default executes tasks strictly in declaration order.  On success the
    two modes are outcome-identical.  On failure they can differ for
    tasks *independent* of the failing one: the sequential engine never
    starts them (SKIPPED), while the parallel engine may have already
    committed them — and then compensates those that carry a
    compensation.  The equivalence boundary is pinned down by the
    workflow property suite.
    """

    def __init__(self, runtime, parallel=False, retry=None, watchdog=None):
        super().__init__(runtime, retry=retry, watchdog=watchdog)
        self.parallel = parallel

    # -- the engine ---------------------------------------------------------------

    def execute(self, spec):
        """Run ``spec``; returns a :class:`WorkflowResult`."""
        spec.validate()
        if self.parallel:
            return self._execute_parallel(spec)
        result = WorkflowResult(name=spec.name, success=True)
        committed = []  # (task, outcome) pairs, commit order

        for task in spec.ordered():
            unmet = [
                dep
                for dep in task.depends_on
                if result.outcomes[dep].status is not TaskStatus.COMMITTED
            ]
            if unmet:
                outcome = TaskOutcome(
                    name=task.name, status=TaskStatus.SKIPPED
                )
                result.outcomes[task.name] = outcome
                if not task.optional:
                    return self._fail(spec, result, committed)
                continue

            strategy = self._try_race if task.race else self._try_sequential
            outcome = strategy(task)
            result.outcomes[task.name] = outcome

            if outcome.status is TaskStatus.COMMITTED:
                committed.append((task, outcome))
            elif not task.optional:
                return self._fail(spec, result, committed)
        return result

    # -- parallel execution ----------------------------------------------------

    def _execute_parallel(self, spec):
        """Overlap independent tasks; see the class docstring.

        Each task is a little state machine: WAITING (dependencies
        unresolved) → RUNNING (an alternative's transaction is live) →
        COMMITTED / FAILED / SKIPPED.  One driver loop advances every
        task, polling the runtime when nothing transitions.
        """
        manager = self.runtime.manager
        result = WorkflowResult(name=spec.name, success=True)
        committed = []  # (task, outcome) in commit order
        runs = {
            task.name: {
                "task": task, "state": "waiting", "alt": 0, "tids": [],
            }
            for task in spec
        }

        def start_next_alternative(run):
            task = run["task"]
            if task.race:
                entrants = list(task.alternatives)  # race: begin them all
            else:
                entrants = [task.alternatives[run["alt"]]]
            run["tids"] = []
            for alternative in entrants:
                tid = self.runtime.initiate(
                    alternative.body, args=alternative.args
                )
                if tid and self.runtime.begin(tid):
                    run["tids"].append((tid, alternative))
            run["state"] = "running" if run["tids"] else "failed"

        def settle(run):
            """Advance a running task; True when its state changed."""
            task = run["task"]
            winner, still = self._race_round(task, run["tids"])
            if winner is not None:
                tid, alternative = winner
                outcome_obj = manager.try_commit(tid)
                if not outcome_obj.is_final:
                    return False  # commit blocked: try again next round
                if outcome_obj:
                    run["state"] = "committed"
                    run["outcome"] = self._committed(task, alternative, tid)
                    return True
                still = []  # the winner aborted at commit time
            run["tids"] = still
            if still:
                return False
            # Everyone in flight died: next alternative, or fail.
            if not task.race and run["alt"] + 1 < len(task.alternatives):
                run["alt"] += 1
                start_next_alternative(run)
                return True
            run["state"] = "failed"
            return True

        idle = 0
        abandoned = False
        while True:
            progressed = False
            for run in runs.values():
                task = run["task"]
                if run["state"] == "waiting":
                    dep_states = [runs[d]["state"] for d in task.depends_on]
                    if all(state == "committed" for state in dep_states):
                        start_next_alternative(run)
                        progressed = True
                    elif any(
                        state in ("failed", "skipped")
                        for state in dep_states
                    ):
                        run["state"] = "skipped"
                        progressed = True
                elif run["state"] == "running":
                    progressed |= settle(run)
            pending = [
                r for r in runs.values()
                if r["state"] in ("waiting", "running")
            ]
            required_failure = any(
                r["state"] in ("failed", "skipped")
                and not r["task"].optional
                for r in runs.values()
            )
            if required_failure:
                abandoned = True
                for run in pending:
                    for tid, __ in run.get("tids", ()):
                        self._abort_loser(tid, run["task"].name)
                    if run["state"] in ("waiting", "running"):
                        run["state"] = "skipped"
                break
            if not pending:
                break
            if not progressed:
                if not self.runtime.poll():
                    idle += 1
                    if idle > MAX_IDLE_POLLS:
                        raise AssetError(
                            f"parallel workflow {spec.name!r} stalled"
                        )

        # Assemble outcomes in declaration order; track commit order for
        # compensation by the order tasks reached "committed".
        for task in spec:
            run = runs[task.name]
            if run["state"] == "committed":
                result.outcomes[task.name] = run["outcome"]
                committed.append((task, run["outcome"]))
            elif run["state"] == "failed":
                result.outcomes[task.name] = TaskOutcome(
                    name=task.name, status=TaskStatus.FAILED
                )
            else:
                result.outcomes[task.name] = TaskOutcome(
                    name=task.name, status=TaskStatus.SKIPPED
                )
        if abandoned:
            self._compensate(result, committed)
            result.success = False
        return result

    def _fail(self, spec, result, committed):
        """Abandon the workflow: compensate, and mark untried tasks."""
        self._compensate(result, committed)
        for task in spec:
            if task.name not in result.outcomes:
                result.outcomes[task.name] = TaskOutcome(
                    name=task.name, status=TaskStatus.SKIPPED
                )
        result.success = False
        return result

    def _compensate(self, result, committed):
        """Backward recovery: undo committed tasks, newest first."""
        for task, outcome in reversed(committed):
            body, args = task.compensation_for(outcome.label)
            if body is None:
                continue
            self._compensate_task(task.name, body, args)
            outcome.status = TaskStatus.COMPENSATED
            result.compensation_order.append(task.name)
