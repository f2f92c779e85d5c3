"""The transaction status machine.

Section 2.1 defines the vocabulary this enum captures:

* *initiated* — registered via ``initiate`` but not yet begun;
* *running* — executing its code;
* *completed* — its code has finished; locks are retained and changes are
  not yet persistent ("the transaction manager records the completion");
* *committing* / *aborting* — transitional states used by the section 4.2
  commit and abort algorithms;
* *committed* / *aborted* — terminated.

The multi-site runtime adds one state the paper leaves implicit:

* *prepared* — the transaction completed, voted to commit in a
  distributed group commit, and force-logged its vote.  It can no longer
  abort unilaterally: only the coordinator's decision (or presumed-abort
  resolution after a coordinator crash) moves it to committing or
  aborting.

A transaction is **active** if it has begun and not terminated (running or
completed, possibly mid-commit/mid-abort).
"""

from __future__ import annotations

import enum

from repro.common.errors import InvalidStateError


class TransactionStatus(enum.Enum):
    """Lifecycle states of a transaction."""

    INITIATED = "initiated"
    RUNNING = "running"
    COMPLETED = "completed"
    PREPARED = "prepared"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTING = "aborting"
    ABORTED = "aborted"


# Each member carries the statuses it may move to and section 2.1's
# flags as plain attributes, so a check is one attribute read (and an
# identity scan of a tuple): on Python 3.11 a property is a call, and
# hashing a member (a dict or set probe) runs ``Enum.__hash__`` in Python.
_S = TransactionStatus
for _current, _targets in (
    (_S.INITIATED, (_S.RUNNING, _S.ABORTING, _S.ABORTED)),
    (_S.RUNNING, (_S.COMPLETED, _S.ABORTING)),
    (_S.COMPLETED, (_S.PREPARED, _S.COMMITTING, _S.ABORTING)),
    (_S.PREPARED, (_S.COMMITTING, _S.ABORTING)),
    # COMMITTING -> COMPLETED: commit blocked, back off and retry.
    (_S.COMMITTING, (_S.COMMITTED, _S.COMPLETED, _S.ABORTING)),
    (_S.ABORTING, (_S.ABORTED,)),
    (_S.COMMITTED, ()),
    (_S.ABORTED, ()),
):
    _current.successors = _targets
    # *Terminated*: committed or aborted.
    _current.is_terminated = _current in (_S.COMMITTED, _S.ABORTED)
    # *Active*: begun and not terminated.
    _current.is_active = not (
        _current.is_terminated or _current is _S.INITIATED
    )
    # Aborting or already aborted.
    _current.is_abort_bound = _current in (_S.ABORTING, _S.ABORTED)


# The statuses in which a transaction's code has not ended yet.
CODE_RUNS = (_S.INITIATED, _S.RUNNING)


def check_transition(current, target):
    """Raise :class:`InvalidStateError` unless ``current -> target`` is legal."""
    if target not in current.successors:
        raise InvalidStateError(
            f"illegal status transition {current.value} -> {target.value}"
        )
    return target
