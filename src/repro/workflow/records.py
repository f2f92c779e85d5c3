"""Durable workflow record vocabulary.

The storage layer persists workflow-orchestration state as typed
:class:`~repro.storage.log.WorkflowRecord` entries (``wid``, ``kind``,
``payload``).  This module owns the ``kind`` vocabulary and the payload
codec the engine and recovery both speak.

Kinds
-----

``started``
    The execution exists.  Payload: ``{"definition": name}`` plus an
    optional caller context.  Written before any step runs.
``step_attempt``
    A forward step is about to commit transaction ``tid``.  Payload:
    ``{"step": name, "alt": label, "tid": value}``.  Force-logged
    *before* the commit record, so recovery can decide "did this step
    commit?" without a separate marker: the step committed iff one of
    its attempt tids is a winner in the log-replay analysis.  Stale
    attempts (crash between attempt and commit) name loser tids and are
    ignored — the step is simply re-issued on resume.
``step_failed`` / ``step_skipped``
    Terminal non-commit outcomes for a step.  Payload: ``{"step": name}``.
``signal_wait``
    The execution paused for an external signal.  Payload:
    ``{"step": name, "signal": signal, "timeout": ticks-or-null,
    "on_timeout": "fail"|"skip"}``.
``signal``
    A signal was delivered.  Payload: ``{"name": signal, "payload": v}``.
``signal_timeout``
    The wait's deadline expired.  Payload: ``{"step": name,
    "signal": signal}``.
``comp_attempt``
    A compensation for ``step`` is about to commit ``tid`` — same
    attempt-before-commit discipline as ``step_attempt``.
``cancelled``
    A cancel request was durably accepted (compensations follow).
``finished``
    Terminal.  Payload: ``{"outcome": "completed"|"compensated"|
    "cancelled"}``.

Every kind is force-flushed by ``log_workflow`` (flat and segmented
WALs), so an acknowledged transition is never lost to a crash.
"""

from __future__ import annotations

from repro.common.codec import decode_json, encode_json
from repro.storage.log import WORKFLOW_FINISHED

STARTED = "started"
STEP_ATTEMPT = "step_attempt"
STEP_FAILED = "step_failed"
STEP_SKIPPED = "step_skipped"
SIGNAL_WAIT = "signal_wait"
SIGNAL = "signal"
SIGNAL_TIMEOUT = "signal_timeout"
COMP_ATTEMPT = "comp_attempt"
CANCELLED = "cancelled"
FINISHED = WORKFLOW_FINISHED

OUTCOME_COMPLETED = "completed"
OUTCOME_COMPENSATED = "compensated"
OUTCOME_CANCELLED = "cancelled"


def encode_payload(fields):
    """Encode a record payload (a small JSON-safe dict) as bytes."""
    return encode_json(dict(fields))


def decode_payload(raw):
    """Decode bytes produced by :func:`encode_payload`."""
    if not raw:
        return {}
    return decode_json(raw)

