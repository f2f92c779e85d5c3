"""Workflow execution state: one record, one transition function.

A :class:`WorkflowExecution` is the image of one running workflow, and
:func:`apply` is the only function that changes it: the engine calls it
once per orchestration record, and :func:`fold_all` calls it once per
record read back from the log.  For an execution of a registered
definition the image is *never* authoritative: every transition is
force-logged first (see :mod:`repro.workflow.records`), and
:func:`fold_all` rebuilds the exact same image from the log — that is
what lets a crashed site resume in-flight workflows.

The one transition the workflow log cannot answer alone is "did this
step's transaction actually commit?": the attempt record is written
*before* the commit record, so a crash can leave a dangling attempt.
The fold therefore takes the set of *winner* tids from the log's index
(:meth:`repro.storage.log.WriteAheadLog.workflows`, the same reading
restart recovery makes) and counts a step as committed iff one of its
attempt tids won; the live engine, which was there when the
commit returned, marks the step itself.  Dangling attempts name loser
tids — recovery already undid them — so the step simply re-runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.storage.log import WorkflowRecord
from repro.workflow import records as wrecords


class TaskStatus(enum.Enum):
    """Terminal status of one workflow task."""

    COMMITTED = "committed"
    FAILED = "failed"
    SKIPPED = "skipped"
    COMPENSATED = "compensated"


class ExecutionStatus(enum.Enum):
    """Lifecycle of one workflow execution."""

    PENDING = "pending"              # created, nothing recorded yet
    RUNNING = "running"              # forward progress in flight
    WAITING_SIGNAL = "waiting_signal"  # parked on an external signal
    COMPLETED = "completed"          # terminal: every required step committed
    COMPENSATED = "compensated"      # terminal: failed, saga fully undone
    CANCELLED = "cancelled"          # terminal: cancel accepted + undone

    @property
    def is_terminal(self):
        return self in _TERMINAL


_TERMINAL = frozenset({
    ExecutionStatus.COMPLETED,
    ExecutionStatus.COMPENSATED,
    ExecutionStatus.CANCELLED,
})


@dataclass
class StepState:
    """What the records say about one step of one execution."""

    name: str
    status: object = None        # TaskStatus or None (no outcome yet)
    alt: str = ""                # winning alternative's label
    tid_value: int = 0           # the committed forward transaction
    value: object = None         # its program's result (live image only)
    attempts: list = field(default_factory=list)  # all attempt tid values
    comp_attempts: list = field(default_factory=list)


@dataclass
class WorkflowExecution:
    """The image of one execution (see module docstring).

    It is also the result of a run: truthy iff the workflow completed.
    """

    wid: int
    definition: str = ""   # registered name; "" = an anonymous spec
    status: ExecutionStatus = ExecutionStatus.PENDING
    steps: dict = field(default_factory=dict)      # name -> StepState
    signals: dict = field(default_factory=dict)    # name -> payload
    waiting_step: str = ""
    waiting_signal: str = ""
    wait_timeout: object = None
    wait_on_timeout: str = "fail"
    outcome: str = ""                              # finished record's verdict
    cancel_requested: bool = False
    context: dict = field(default_factory=dict)

    @property
    def success(self):
        return self.status is ExecutionStatus.COMPLETED

    def __bool__(self):
        return self.success

    def step(self, name):
        if name not in self.steps:
            self.steps[name] = StepState(name=name)
        return self.steps[name]

    def committed_steps(self):
        """Names of steps whose forward work committed, in commit order."""
        return [
            state.name
            for state in self.steps.values()
            if state.status is TaskStatus.COMMITTED
        ]

    def compensated_steps(self):
        """Names of steps whose compensation committed, newest first —
        the order backward recovery ran them in."""
        return [
            name
            for name in reversed(self.steps)
            if self.steps[name].status is TaskStatus.COMPENSATED
        ]

    def status_of(self, step_name):
        """The step's :class:`TaskStatus`.

        A step with no outcome reads ``None`` while the execution can
        still reach it and SKIPPED once the execution is terminal — it
        never will be reached, and that needs no record.
        """
        state = self.steps.get(step_name)
        if state is not None and state.status is not None:
            return state.status
        return TaskStatus.SKIPPED if self.status.is_terminal else None


def fold_all(log_records, winners):
    """Rebuild every execution present in ``log_records`` (wid -> image).

    ``log_records`` is a record sequence in LSN order (any record types;
    non-workflow records are skipped).  ``winners`` is the set of
    committed tid *values* per the log-replay analysis.
    """
    executions = {}
    for record in log_records:
        if type(record) is WorkflowRecord:
            if record.wid not in executions:
                executions[record.wid] = WorkflowExecution(wid=record.wid)
            payload = wrecords.decode_payload(record.payload)
            apply(executions[record.wid], record.kind, payload, winners)
    return executions


def apply(execution, kind, payload, winners=()):
    """The transition function: one record's effect on the image.

    ``winners`` holds the tid values known to have committed.  The live
    engine passes none — it applies an attempt *before* the commit it
    announces — and the fold passes the log's.
    """
    if kind == wrecords.STARTED:
        execution.definition = payload.get("definition", "")
        execution.context = payload.get("context", {}) or {}
        execution.status = ExecutionStatus.RUNNING
    elif kind == wrecords.STEP_ATTEMPT:
        state = execution.step(payload["step"])
        tid_value = payload.get("tid", 0)
        state.attempts.append(tid_value)
        if tid_value in winners:
            state.status = TaskStatus.COMMITTED
            state.alt = payload.get("alt", "")
            state.tid_value = tid_value
        # A loser attempt is a crash shadow: recovery undid the
        # transaction, so the step stays unreached and will re-run.
    elif kind == wrecords.STEP_FAILED:
        execution.step(payload["step"]).status = TaskStatus.FAILED
    elif kind == wrecords.STEP_SKIPPED:
        execution.step(payload["step"]).status = TaskStatus.SKIPPED
    elif kind == wrecords.SIGNAL_WAIT:
        execution.status = ExecutionStatus.WAITING_SIGNAL
        execution.waiting_step = payload["step"]
        execution.waiting_signal = payload["signal"]
        execution.wait_timeout = payload.get("timeout")
        execution.wait_on_timeout = payload.get("on_timeout", "fail")
    elif kind == wrecords.SIGNAL:
        execution.signals[payload["name"]] = payload.get("payload")
        if execution.waiting_signal == payload["name"]:
            _clear_wait(execution)
    elif kind == wrecords.SIGNAL_TIMEOUT:
        if execution.waiting_step == payload.get("step"):
            _clear_wait(execution)
    elif kind == wrecords.COMP_ATTEMPT:
        state = execution.step(payload["step"])
        tid_value = payload.get("tid", 0)
        state.comp_attempts.append(tid_value)
        if tid_value in winners:
            state.status = TaskStatus.COMPENSATED
    elif kind == wrecords.CANCELLED:
        execution.cancel_requested = True
        if not execution.status.is_terminal:
            execution.status = ExecutionStatus.RUNNING
            _clear_wait(execution)
    elif kind == wrecords.FINISHED:
        execution.outcome = payload.get("outcome", "")
        execution.status = {
            wrecords.OUTCOME_COMPLETED: ExecutionStatus.COMPLETED,
            wrecords.OUTCOME_COMPENSATED: ExecutionStatus.COMPENSATED,
            wrecords.OUTCOME_CANCELLED: ExecutionStatus.CANCELLED,
        }.get(payload.get("outcome"), ExecutionStatus.COMPLETED)


def _clear_wait(execution):
    if not execution.status.is_terminal:
        execution.status = ExecutionStatus.RUNNING
    execution.waiting_step = ""
    execution.waiting_signal = ""
    execution.wait_timeout = None
    execution.wait_on_timeout = "fail"
