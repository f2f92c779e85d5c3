"""The durable workflow engine (v2): executions that survive crashes.

:class:`DurableWorkflowEngine` runs :class:`~repro.workflow.definition
.WorkflowDefinition`\\ s with the same section 3 translation schemes as
the in-memory engine, but every orchestration transition is force-logged
through the WAL first (:mod:`repro.workflow.records`), so a site crash
mid-workflow loses nothing: restart recovery replays the data log,
:meth:`DurableWorkflowEngine.recover` folds the workflow records back
into :class:`~repro.workflow.execution.WorkflowExecution` images, and
:meth:`resume` continues each in-flight execution from its last durable
step.

The protocol is ``start`` / ``resume`` / ``cancel`` / ``signal`` /
``status``:

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

from dataclasses import dataclass

from repro.common.clock import LogicalClock
from repro.common.errors import AssetError
from repro.resilience.deadlines import DeadlineTable
from repro.storage.recovery import commit_winners
from repro.workflow import records as wrecords
from repro.workflow.engine import StepStrategies, TaskStatus
from repro.workflow.execution import (
    ExecutionStatus,
    fold_all,
)


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


class DurableWorkflowEngine(StepStrategies):
    """Runs workflow definitions with WAL-persisted execution state."""

    def __init__(self, runtime, registry, *, retry=None, watchdog=None,
                 metrics=None, on_commit=None, owner="engine", leases=None,
                 execution_lease=32):
        super().__init__(runtime, retry=retry, watchdog=watchdog)
        self.registry = registry
        self.storage = runtime.manager.storage
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
        # Called with (wid, kind, fields) after every durable workflow
        # record — the seam the observability kit hangs spans off.
        self.on_record = None
        self._executions = {}
        self._next_wid = 1
        for record in wrecords.workflow_records(self.storage.log.records()):
            self._next_wid = max(self._next_wid, record.wid + 1)

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
        this engine's in-memory image before going quiet.
        """
        if self.leases is None:
            return
        previous = self.leases.owner_of(wid)
        if not self.leases.claim(wid, self.owner, self.execution_lease):
            raise AssetError(
                f"wid={wid} is owned by {self.leases.owner_of(wid)!r}"
                f" under a live lease; this engine ({self.owner!r}) must"
                f" wait for it to lapse"
            )
        if previous is not None and previous != self.owner:
            self._refold(wid)

    def _fold(self):
        """wid → execution image, folded from the durable log alone."""
        log_records = list(self.storage.log.records())
        winners = {tid.value for tid in commit_winners(log_records)}
        return fold_all(log_records, winners)

    def _refold(self, wid):
        """Replace the in-memory image with the durable log's truth."""
        execution = self._fold().get(wid)
        if execution is not None:
            self._executions[wid] = execution

    def _release(self, wid):
        if self.leases is not None:
            self.leases.release(wid, self.owner)

    def _log(self, wid, kind, fields):
        self.storage.log_workflow(
            wid, kind, payload=wrecords.encode_payload(fields)
        )
        if self.leases is not None:
            # Durable progress doubles as the ownership heartbeat.
            self.leases.heartbeat(wid, self.owner)
        self.timeline.append(
            {"tick": self.clock.peek(), "wid": wid, "kind": kind, **fields}
        )
        if self.on_record is not None:
            self.on_record(wid, kind, fields)

    def _require(self, wid):
        if wid not in self._executions:
            raise AssetError(f"unknown workflow execution: wid={wid}")
        return self._executions[wid]

    # -- the protocol ------------------------------------------------------

    def start(self, definition_name, wid=None, context=None):
        """Create a durable execution and drive it; returns its wid."""
        self.registry.get(definition_name)  # fail fast on unknown names
        if wid is None:
            wid = self._next_wid
        if wid in self._executions:
            raise AssetError(f"workflow execution wid={wid} already exists")
        self._next_wid = max(self._next_wid, wid + 1)
        self._claim(wid)
        from repro.workflow.execution import WorkflowExecution

        execution = WorkflowExecution(
            wid=wid,
            definition=definition_name,
            context=dict(context or {}),
        )
        self._executions[wid] = execution
        self._log(wid, wrecords.STARTED, {
            "definition": definition_name,
            "context": execution.context,
        })
        execution.status = ExecutionStatus.RUNNING
        self._count("started")
        self._drive(wid)
        return wid

    def status(self, wid):
        """The execution's :class:`ExecutionStatus`."""
        return self._require(wid).status

    def execution(self, wid):
        """The folded :class:`WorkflowExecution` image."""
        return self._require(wid)

    def executions(self):
        """wid → execution, every execution this engine knows about."""
        return dict(self._executions)

    def resume(self, wid):
        """Continue forward progress; no-op on terminal or parked runs."""
        execution = self._require(wid)
        if execution.status.is_terminal:
            return execution.status
        if execution.status is ExecutionStatus.WAITING_SIGNAL:
            return execution.status
        return self._drive(wid)

    def signal(self, wid, name, payload=None, resume=True):
        """Durably deliver signal ``name``; resumes a matching wait."""
        execution = self._require(wid)
        if execution.status.is_terminal:
            return execution.status
        self._claim(wid)
        execution = self._require(wid)  # _claim may have re-folded
        if execution.status.is_terminal:
            return execution.status
        self._log(wid, wrecords.SIGNAL, {"name": name, "payload": payload})
        execution.signals[name] = payload
        self._count("signals")
        if (
            execution.status is ExecutionStatus.WAITING_SIGNAL
            and execution.waiting_signal == name
        ):
            self._unpark(execution)
            if resume:
                return self._drive(wid)
        return execution.status

    def cancel(self, wid):
        """Durably accept a cancel: compensate and finish ``cancelled``."""
        execution = self._require(wid)
        if execution.status.is_terminal:
            return execution.status
        self._claim(wid)
        execution = self._require(wid)  # _claim may have re-folded
        if execution.status.is_terminal:
            return execution.status
        self._log(wid, wrecords.CANCELLED, {})
        execution.cancel_requested = True
        if execution.status is ExecutionStatus.WAITING_SIGNAL:
            self._unpark(execution)
        return self._finish_backward(execution, wrecords.OUTCOME_CANCELLED)

    def expire_wait(self, wid):
        """Fire a parked execution's wait timer (deterministic time travel).

        Advances the logical clock to the armed deadline — the same
        stall-rescue jump the watchdog performs — then applies the
        wait's ``on_timeout`` policy.
        """
        execution = self._require(wid)
        if execution.status is not ExecutionStatus.WAITING_SIGNAL:
            return execution.status
        if execution.wait_timeout is None:
            raise AssetError(
                f"wid={wid} waits on {execution.waiting_signal!r} with no"
                " timeout; deliver the signal or cancel"
            )
        self._claim(wid)
        execution = self._require(wid)  # _claim may have re-folded
        if execution.status is not ExecutionStatus.WAITING_SIGNAL:
            return execution.status
        token = _WaitToken(wid)
        deadline = self.deadlines.deadline_of(token)
        if deadline is not None:
            self.clock.advance_to(deadline)
        step = execution.waiting_step
        self._log(wid, wrecords.SIGNAL_TIMEOUT, {
            "step": step, "signal": execution.waiting_signal,
        })
        on_timeout = execution.wait_on_timeout
        self._unpark(execution)
        self._count("timeouts")
        definition = self.registry.get(execution.definition)
        task = next(t for t in definition.spec if t.name == step)
        if on_timeout == "skip":
            self._log(wid, wrecords.STEP_SKIPPED, {"step": step})
            execution.step(step).status = TaskStatus.SKIPPED
            return self._drive(wid)
        self._log(wid, wrecords.STEP_FAILED, {"step": step})
        execution.step(step).status = TaskStatus.FAILED
        if task.optional:
            return self._drive(wid)
        return self._finish_backward(execution, wrecords.OUTCOME_COMPENSATED)

    # -- recovery ----------------------------------------------------------

    def recover(self):
        """Rebuild executions from the durable log; returns in-flight wids.

        Call after storage restart recovery has run and the site's
        definitions are re-registered.  Parked executions get their wait
        timers re-armed with the full budget; callers then drive each
        returned wid with :meth:`resume` / :meth:`signal` /
        :meth:`expire_wait`.
        """
        recovered = []
        for wid, execution in sorted(self._fold().items()):
            self._executions[wid] = execution
            self._next_wid = max(self._next_wid, wid + 1)
            if execution.status.is_terminal:
                continue
            if execution.definition:
                self.registry.get(execution.definition)  # must be present
            if (
                execution.status is ExecutionStatus.WAITING_SIGNAL
                and execution.wait_timeout is not None
            ):
                self.deadlines.set_deadline(
                    _WaitToken(wid), budget=execution.wait_timeout
                )
            self._count("recovered")
            recovered.append(wid)
        return recovered

    # -- driving -----------------------------------------------------------

    def _drive(self, wid):
        """Run forward from the last durable step; park, finish, or fail."""
        self._claim(wid)
        execution = self._executions[wid]
        if execution.status.is_terminal:
            return execution.status
        if execution.cancel_requested:
            # A durably accepted cancel interrupted by a crash must
            # resume as a cancel: never make forward progress again.
            return self._finish_backward(execution, wrecords.OUTCOME_CANCELLED)
        definition = self.registry.get(execution.definition)
        for task in definition.spec.ordered():
            existing = execution.status_of(task.name)
            if existing in (TaskStatus.COMMITTED, TaskStatus.COMPENSATED,
                            TaskStatus.SKIPPED):
                continue
            if existing is TaskStatus.FAILED:
                if task.optional:
                    continue
                return self._finish_backward(
                    execution, wrecords.OUTCOME_COMPENSATED
                )
            unmet = [
                dep for dep in task.depends_on
                if execution.status_of(dep) is not TaskStatus.COMMITTED
            ]
            if unmet:
                # A required step with unmet dependencies fails the
                # workflow (durably, so a resume after the crash agrees).
                if task.optional:
                    self._log(wid, wrecords.STEP_SKIPPED, {"step": task.name})
                    execution.step(task.name).status = TaskStatus.SKIPPED
                    continue
                self._log(wid, wrecords.STEP_FAILED, {"step": task.name})
                execution.step(task.name).status = TaskStatus.FAILED
                return self._finish_backward(
                    execution, wrecords.OUTCOME_COMPENSATED
                )
            wait = definition.waits.get(task.name)
            if wait is not None and wait.signal not in execution.signals:
                self._park(execution, task.name, wait)
                return execution.status
            status = self._run_step(execution, task)
            if status is TaskStatus.COMMITTED or task.optional:
                continue
            return self._finish_backward(
                execution, wrecords.OUTCOME_COMPENSATED
            )
        self._log(wid, wrecords.FINISHED, {
            "outcome": wrecords.OUTCOME_COMPLETED,
        })
        execution.status = ExecutionStatus.COMPLETED
        self._count("completed")
        self._release(wid)
        return execution.status

    def _park(self, execution, step, wait):
        self._log(execution.wid, wrecords.SIGNAL_WAIT, {
            "step": step,
            "signal": wait.signal,
            "timeout": wait.timeout,
            "on_timeout": wait.on_timeout,
        })
        execution.status = ExecutionStatus.WAITING_SIGNAL
        execution.waiting_step = step
        execution.waiting_signal = wait.signal
        execution.wait_timeout = wait.timeout
        execution.wait_on_timeout = wait.on_timeout
        if wait.timeout is not None:
            self.deadlines.set_deadline(
                _WaitToken(execution.wid), budget=wait.timeout
            )

    def _unpark(self, execution):
        self.deadlines.forget(_WaitToken(execution.wid))
        execution.status = ExecutionStatus.RUNNING
        execution.waiting_step = ""
        execution.waiting_signal = ""
        execution.wait_timeout = None
        execution.wait_on_timeout = "fail"

    # -- step execution ----------------------------------------------------

    def _run_step(self, execution, task):
        """One step by the shared strategies, with durable attempt records.

        The attempt is forced to the log BEFORE the commit: see the
        module docstring.
        """
        wid = execution.wid

        def attempt(task, alternative, tid):
            self._log(wid, wrecords.STEP_ATTEMPT, {
                "step": task.name,
                "alt": alternative.label,
                "tid": tid.value,
            })

        strategy = self._try_race if task.race else self._try_sequential
        outcome = strategy(task, before_commit=attempt)
        state = execution.step(task.name)
        if outcome.status is TaskStatus.COMMITTED:
            state.status = TaskStatus.COMMITTED
            state.alt = outcome.label
            state.tid_value = outcome.tid.value
            self._count("steps_committed")
            if self.on_commit is not None:
                self.on_commit(outcome.tid)
        else:
            self._log(wid, wrecords.STEP_FAILED, {"step": task.name})
            state.status = TaskStatus.FAILED
        return outcome.status

    # -- backward recovery -------------------------------------------------

    def _finish_backward(self, execution, outcome):
        """Compensate every committed step (newest first), then finish."""
        definition = self.registry.get(execution.definition)
        order = [task.name for task in definition.spec.ordered()]
        by_name = {task.name: task for task in definition.spec}
        committed = [
            name for name in order
            if execution.status_of(name) is TaskStatus.COMMITTED
        ]
        for name in reversed(committed):
            task = by_name[name]
            state = execution.steps[name]
            body, args = task.compensation_for(state.alt)
            if body is None:
                continue

            def attempt(ct, name=name):
                self._log(execution.wid, wrecords.COMP_ATTEMPT, {
                    "step": name, "tid": ct.value,
                })

            ct = self._compensate_task(
                name, body, args, before_commit=attempt,
                reissue_exhausted=True,
            )
            if self.on_commit is not None:
                self.on_commit(ct)
            state.status = TaskStatus.COMPENSATED
            self._count("compensations")
        self._log(execution.wid, wrecords.FINISHED, {"outcome": outcome})
        if outcome == wrecords.OUTCOME_CANCELLED:
            execution.status = ExecutionStatus.CANCELLED
            self._count("cancelled")
        else:
            execution.status = ExecutionStatus.COMPENSATED
            self._count("compensated")
        self._release(execution.wid)
        return execution.status
