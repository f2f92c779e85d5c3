"""Workflow definitions: a spec plus control-flow the spec can't carry.

A :class:`WorkflowDefinition` names a :class:`~repro.workflow.spec
.WorkflowSpec` and decorates its steps with *signal waits*: before the
named step runs, the execution parks until an external signal arrives
(or its timer expires).  This is the piece that makes workflows
long-running — the execution can outlive the process, which is why the
engine (:mod:`repro.workflow.engine`) persists every transition of an
execution that runs a registered definition.

Definitions hold Python callables (transaction bodies), which cannot be
serialized into the WAL.  The ``started`` record therefore
carries only the definition *name*; after a restart the host re-registers
its definitions in a :class:`DefinitionRegistry` and recovery looks the
bodies up by name.  This is the standard split between durable execution
state and re-deployed code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import AssetError

_TIMEOUT_ACTIONS = ("fail", "skip")


@dataclass(frozen=True)
class SignalWait:
    """Park before a step until ``signal`` arrives.

    ``timeout`` is a logical-tick budget (``None`` waits forever).  When
    it expires, ``on_timeout`` decides the step's fate: ``"fail"`` treats
    the step as failed (compensating the workflow if the step is
    required), ``"skip"`` skips the step and moves on.
    """

    signal: str
    timeout: object = None
    on_timeout: str = "fail"


class WorkflowDefinition:
    """A named workflow: spec + per-step signal waits."""

    def __init__(self, name, spec, waits=None):
        self.name = name
        self.spec = spec
        self.waits = dict(waits or {})

    def wait_for(self, step, signal, timeout=None, on_timeout="fail"):
        """Attach a signal wait before ``step`` (fluent: returns self)."""
        self.waits[step] = SignalWait(
            signal=signal, timeout=timeout, on_timeout=on_timeout
        )
        return self

    def validate(self):
        """Validate the spec and the waits; returns self."""
        self.spec.validate()
        step_names = {task.name for task in self.spec}
        for step, wait in self.waits.items():
            if step not in step_names:
                raise AssetError(
                    f"definition {self.name!r}: signal wait on unknown"
                    f" step {step!r}"
                )
            if wait.on_timeout not in _TIMEOUT_ACTIONS:
                raise AssetError(
                    f"definition {self.name!r}: step {step!r} has"
                    f" on_timeout={wait.on_timeout!r}, expected one of"
                    f" {_TIMEOUT_ACTIONS}"
                )
            if wait.timeout is not None and wait.timeout < 0:
                raise AssetError(
                    f"definition {self.name!r}: step {step!r} has a"
                    " negative timeout"
                )
        return self


class DefinitionRegistry:
    """Name → definition lookup; recovery's bridge back to code.

    The durable log stores definition *names*; whoever restarts the site
    must register the same definitions (same name, compatible spec)
    before calling ``recover``.
    """

    def __init__(self):
        self._definitions = {}

    def register(self, definition):
        """Validate and register ``definition``; returns it."""
        definition.validate()
        self._definitions[definition.name] = definition
        return definition

    def get(self, name):
        if name not in self._definitions:
            raise AssetError(
                f"unknown workflow definition {name!r}: re-register the"
                " site's definitions before recovering executions"
            )
        return self._definitions[name]

    def __contains__(self, name):
        return name in self._definitions

    def names(self):
        return sorted(self._definitions)
