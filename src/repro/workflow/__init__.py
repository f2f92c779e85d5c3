"""Workflows (section 3.2.3 and the appendix).

Workflows are "long-lived activities with transaction-like components
having inter-related dependencies".  The paper shows one written directly
against the primitives (the X_conference travel program); this package
provides both:

* :mod:`repro.workflow.spec` — a declarative workflow description:
  tasks with ordered alternatives, optional tasks, racing alternatives,
  compensations, and inter-task dependencies ("it is possible to design a
  language to specify workflows", as the paper notes);
* :mod:`repro.workflow.engine` — the one engine: runs a spec over a
  runtime using the same translation schemes as section 3, every run one
  :class:`WorkflowExecution` record; ``execute(spec)`` for an anonymous
  spec, and for named definitions a start/resume/cancel/signal/status
  protocol whose in-flight executions survive site crashes;
* :mod:`repro.workflow.travel` — the appendix scenario: inventory-backed
  flight/hotel/car reservations, plus :func:`x_conference`, a literal
  transcription of the appendix program;
* :mod:`repro.workflow.definition` / :mod:`repro.workflow.execution` /
  :mod:`repro.workflow.records` — what makes an execution durable: named
  definitions with signal waits and timers, the execution record and its
  one transition function, and the WAL record vocabulary.
"""

from repro.workflow.definition import (
    DefinitionRegistry,
    SignalWait,
    WorkflowDefinition,
)
from repro.workflow.durable import DurableWorkflowEngine
from repro.workflow.engine import ExecutionLeaseBoard, WorkflowEngine
from repro.workflow.execution import (
    ExecutionStatus,
    TaskStatus,
    WorkflowExecution,
)
from repro.workflow.spec import TaskSpec, WorkflowSpec
from repro.workflow.travel import TravelAgency, x_conference

__all__ = [
    "DefinitionRegistry",
    "DurableWorkflowEngine",
    "ExecutionLeaseBoard",
    "ExecutionStatus",
    "SignalWait",
    "TaskSpec",
    "TaskStatus",
    "TravelAgency",
    "WorkflowDefinition",
    "WorkflowEngine",
    "WorkflowExecution",
    "WorkflowSpec",
    "x_conference",
]
