"""Outcome types returned by the non-blocking transaction-manager core.

The paper's primitives block ("t_i blocks and retries later starting at
step 1").  The core is a synchronous state machine instead: each primitive
either succeeds, definitively fails, or reports *would block* along with
who it is waiting for.  The runtimes translate would-block outcomes into
real blocking (threads) or scheduler yields (cooperative), and both retry
from step 1 exactly as the paper prescribes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


@dataclass(frozen=True)
class LockOutcome:
    """Result of a lock request.

    ``granted`` — the lock is now held.  Otherwise ``blockers`` lists the
    transactions holding conflicting granted locks (the waits-for edges the
    deadlock detector consumes).
    """

    granted: bool
    blockers: tuple = ()

    def __bool__(self):
        return self.granted


GRANTED = LockOutcome(granted=True)
"""The one granted outcome (immutable, so every grant shares it, and a
hot caller tests ``outcome is GRANTED`` rather than calling ``__bool__``)."""


class PrepareStatus(enum.Enum):
    """How a ``try_prepare`` (distributed-commit vote) attempt resolved."""

    PREPARED = "prepared"  # vote-commit force-logged; awaiting the decision
    ALREADY_PREPARED = "already_prepared"  # duplicate prepare: same answer
    ABORTED = "aborted"  # cannot vote commit; the group must abort
    BLOCKED = "blocked"  # dependencies unresolved; retry later
    NOT_COMPLETED = "not_completed"  # code still running; wait first


@dataclass(frozen=True)
class PrepareOutcome:
    """Result of a distributed-commit vote attempt.

    Truthy iff the local group is (now or already) prepared — i.e. the
    site may send VOTE-COMMIT.  ``group`` lists every local member the
    vote covers; BLOCKED outcomes carry ``waiting_for`` exactly like
    :class:`CommitOutcome`.
    """

    status: PrepareStatus
    waiting_for: tuple = ()
    group: tuple = field(default=())

    def __bool__(self):
        return self.status in (
            PrepareStatus.PREPARED,
            PrepareStatus.ALREADY_PREPARED,
        )

    @property
    def is_final(self):
        """Whether retrying cannot change the answer."""
        return self.status in (
            PrepareStatus.PREPARED,
            PrepareStatus.ALREADY_PREPARED,
            PrepareStatus.ABORTED,
        )


class CommitStatus(enum.Enum):
    """How a ``try_commit`` attempt resolved."""

    COMMITTED = "committed"  # this call committed the transaction
    ALREADY_COMMITTED = "already_committed"  # paper: commit returns 1
    ABORTED = "aborted"  # paper: commit returns 0
    BLOCKED = "blocked"  # dependencies unresolved; retry later
    NOT_COMPLETED = "not_completed"  # code still running; wait first


@dataclass(frozen=True)
class CommitOutcome:
    """Result of a commit attempt.

    Truthy iff the transaction is (now or already) committed.  When
    ``status`` is BLOCKED, ``waiting_for`` lists the transactions whose
    termination (CD/AD) or commit participation (GC) is awaited.
    """

    status: CommitStatus
    waiting_for: tuple = ()
    group: tuple = field(default=())

    def __bool__(self):
        return self.status in (
            CommitStatus.COMMITTED,
            CommitStatus.ALREADY_COMMITTED,
        )

    @property
    def is_final(self):
        """Whether retrying cannot change the answer."""
        return self.status in (
            CommitStatus.COMMITTED,
            CommitStatus.ALREADY_COMMITTED,
            CommitStatus.ABORTED,
        )
