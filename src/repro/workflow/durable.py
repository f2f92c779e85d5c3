"""The one engine under its old durable name.

There is no separate durable engine: :class:`~repro.workflow.engine
.WorkflowEngine` logs an execution iff it runs a registered definition.
The name stays because ``perf/workloads/extended_mix.py`` imports it and
a PR that is not a benchmark PR may not edit ``perf/``; nothing else
should use it.
"""

from repro.workflow.engine import WorkflowEngine

DurableWorkflowEngine = WorkflowEngine
