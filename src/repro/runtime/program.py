"""Transaction programs and the request vocabulary.

A transaction body is a generator function::

    def transfer(tx, src, dst, amount):
        balance = yield tx.read(src)
        yield tx.write(src, balance - amount)
        other = yield tx.read(dst)
        yield tx.write(dst, other + amount)

``tx`` is a :class:`TxnContext`; its methods build *request* objects which
the runtime executes on the transaction's behalf, sending the result back
into the generator.  Yield points are exactly the primitive invocations,
which is what lets the cooperative runtime explore interleavings
deterministically.

:func:`execute_request` is the single shared interpreter: it maps one
request to core calls and reports either ``("done", value)`` or
``("blocked", who)`` — the runtime decides how to wait.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import AssetError
from repro.common.ids import NULL_TID
from repro.core.outcomes import GRANTED, CommitOutcome, CommitStatus
from repro.core.status import CODE_RUNS


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """Base class for requests a program can yield."""


@dataclass(frozen=True)
class Read(Request):
    oid: object = None


@dataclass(frozen=True)
class Write(Request):
    oid: object = None
    value: bytes = b""


@dataclass(frozen=True)
class Create(Request):
    value: bytes = b""
    name: str = ""


@dataclass(frozen=True)
class Operation(Request):
    oid: object = None
    operation: str = ""
    transform: object = None


@dataclass(frozen=True)
class Initiate(Request):
    function: object = None
    args: tuple = ()


@dataclass(frozen=True)
class Begin(Request):
    tids: tuple = ()


@dataclass(frozen=True)
class Commit(Request):
    tid: object = None


@dataclass(frozen=True)
class Wait(Request):
    tid: object = None


@dataclass(frozen=True)
class Abort(Request):
    tid: object = None


@dataclass(frozen=True)
class Delegate(Request):
    source: object = None
    target: object = None
    oids: tuple = None


@dataclass(frozen=True)
class Permit(Request):
    giver: object = None
    receiver: object = None
    oids: tuple = None
    operations: tuple = None


@dataclass(frozen=True)
class FormDependency(Request):
    dep_type: object = None
    ti: object = None
    tj: object = None


@dataclass(frozen=True)
class GetStatus(Request):
    tid: object = None


@dataclass(frozen=True)
class GetResult(Request):
    tid: object = None


@dataclass(frozen=True)
class Savepoint(Request):
    pass


@dataclass(frozen=True)
class RollbackTo(Request):
    savepoint: int = 0


# ---------------------------------------------------------------------------
# the per-transaction context
# ---------------------------------------------------------------------------


class TxnContext:
    """What a transaction body sees: request builders plus identity.

    ``tx.tid`` is the paper's ``self()``; ``tx.parent`` its ``parent()``.
    Every other method builds a request to be yielded.
    """

    def __init__(self, tid, parent=NULL_TID):
        self.tid = tid
        self.parent = parent

    # identity ----------------------------------------------------------

    def self_tid(self):
        """The paper's ``self()``."""
        return self.tid

    def parent_tid(self):
        """The paper's ``parent()`` (null tid at top level)."""
        return self.parent

    # object access -----------------------------------------------------

    def read(self, oid):
        """Request: read ``oid`` (acquiring a read lock if needed)."""
        return Read(oid=oid)

    def write(self, oid, value):
        """Request: write ``value`` to ``oid`` (write lock, logged)."""
        return Write(oid=oid, value=value)

    def create(self, value, name=""):
        """Request: create a new object; the result is its id."""
        return Create(value=value, name=name)

    def operation(self, oid, operation, transform):
        """Request: a semantic operation under an operation lock."""
        return Operation(oid=oid, operation=operation, transform=transform)

    # transaction control -------------------------------------------------

    def initiate(self, function, args=()):
        """Request: register a child transaction (result: its tid)."""
        return Initiate(function=function, args=tuple(args))

    def begin(self, *tids):
        """Request: start execution of initiated transactions."""
        return Begin(tids=tuple(tids))

    def commit(self, tid=None):
        """Request: commit ``tid`` (default: self).  Blocking."""
        return Commit(tid=tid if tid is not None else self.tid)

    def wait(self, tid):
        """Request: wait for ``tid`` to complete; result 1/0 as the paper."""
        return Wait(tid=tid)

    def abort(self, tid=None):
        """Request: abort ``tid`` (default: self)."""
        return Abort(tid=tid if tid is not None else self.tid)

    # the new primitives -----------------------------------------------------

    def delegate(self, target, oids=None, source=None):
        """Request: delegate (all or ``oids``) from ``source`` (default self)."""
        return Delegate(
            source=source if source is not None else self.tid,
            target=target,
            oids=tuple(oids) if oids is not None else None,
        )

    def permit(self, receiver=None, oids=None, operations=None, giver=None):
        """Request: any of the four ``permit`` forms (default giver: self)."""
        return Permit(
            giver=giver if giver is not None else self.tid,
            receiver=receiver,
            oids=tuple(oids) if oids is not None else None,
            operations=tuple(operations) if operations is not None else None,
        )

    def form_dependency(self, dep_type, ti, tj):
        """Request: form a dependency of ``dep_type`` between ``ti``/``tj``."""
        return FormDependency(dep_type=dep_type, ti=ti, tj=tj)

    def status_of(self, tid):
        """Request: the status of ``tid`` (a status query primitive)."""
        return GetStatus(tid=tid)

    def result_of(self, tid):
        """Request: the program return value of a completed ``tid``."""
        return GetResult(tid=tid)

    def savepoint(self):
        """Request: mark a rollback point (result: an opaque token)."""
        return Savepoint()

    def rollback_to(self, savepoint):
        """Request: undo my updates made after ``savepoint``."""
        return RollbackTo(savepoint=savepoint)


# ---------------------------------------------------------------------------
# the shared request interpreter
# ---------------------------------------------------------------------------

DONE = "done"
BLOCKED = "blocked"

_NOT_COMPLETED = CommitOutcome(CommitStatus.NOT_COMPLETED)


def commit_when_ended(manager, td):
    """The one rule for entering the commit algorithm from a driver.

    The paper's ``commit(t)`` waits for ``t``'s code to complete, *then*
    runs the section 4.2 algorithm.  The waiting half lives here: while
    ``td`` is still INITIATED or RUNNING — exactly when
    ``manager.try_commit`` would answer NOT_COMPLETED, before any status
    change, event, tick or log record — the manager is not asked and the
    same answer is given from the descriptor.  Once the descriptor has
    left those states the call goes through and the manager's outcome
    comes back: final, or BLOCKED, which the caller retries every round
    "starting at step 1" as before.  ``td`` is the live descriptor
    (fetched once by the caller, not per retry); a status never returns
    to RUNNING, so a read without the manager's mutex can only be stale
    in the direction of waiting one more wake-up.
    """
    if td.status in CODE_RUNS:
        return _NOT_COMPLETED
    return manager.try_commit(td.tid)


def execute_request(manager, runtime, tid, request):
    """Execute one request for transaction ``tid``.

    Returns ``(DONE, value)`` or ``(BLOCKED, who)`` where ``who`` is the
    collection of tids being waited for (possibly empty when unknown).
    ``runtime`` supplies :meth:`on_begun` so freshly begun transactions
    get a task/thread.
    """
    if isinstance(request, Read):
        outcome, value = manager.try_read(tid, request.oid)
        if outcome is not GRANTED:
            return BLOCKED, outcome.blockers
        return DONE, value
    if isinstance(request, Write):
        outcome = manager.try_write(tid, request.oid, request.value)
        if outcome is not GRANTED:
            return BLOCKED, outcome.blockers
        return DONE, True
    if isinstance(request, Create):
        return DONE, manager.create_object(tid, request.value, name=request.name)
    if isinstance(request, Operation):
        outcome, result = manager.try_operation(
            tid, request.oid, request.operation, request.transform
        )
        if outcome is not GRANTED:
            return BLOCKED, outcome.blockers
        return DONE, result
    if isinstance(request, Initiate):
        return DONE, manager.initiate(
            function=request.function, args=request.args, initiator=tid
        )
    if isinstance(request, Begin):
        begun, blockers = manager.try_begin(*request.tids)
        if not begun:
            return (BLOCKED, blockers) if blockers else (DONE, 0)
        for target in request.tids:
            runtime.on_begun(target)
        return DONE, 1
    if isinstance(request, Commit):
        outcome = commit_when_ended(manager, manager.table.get(request.tid))
        if outcome.is_final:
            return DONE, 1 if outcome else 0
        if outcome.status is CommitStatus.NOT_COMPLETED:
            return BLOCKED, (request.tid,)
        return BLOCKED, outcome.waiting_for
    if isinstance(request, Wait):
        result = manager.wait_outcome(request.tid)
        if result is None:
            return BLOCKED, (request.tid,)
        return DONE, 1 if result else 0
    if isinstance(request, Abort):
        return DONE, 1 if manager.abort(request.tid) else 0
    if isinstance(request, Delegate):
        oids = set(request.oids) if request.oids is not None else None
        return DONE, manager.delegate(request.source, request.target, oids=oids)
    if isinstance(request, Permit):
        return DONE, manager.permit(
            request.giver,
            tj=request.receiver,
            oids=request.oids,
            operations=request.operations,
        )
    if isinstance(request, FormDependency):
        return DONE, manager.form_dependency(
            request.dep_type, request.ti, request.tj
        )
    if isinstance(request, GetStatus):
        return DONE, manager.status_of(request.tid)
    if isinstance(request, GetResult):
        return DONE, runtime.result_of(request.tid)
    if isinstance(request, Savepoint):
        return DONE, manager.savepoint(tid)
    if isinstance(request, RollbackTo):
        return DONE, manager.rollback_to(tid, request.savepoint)
    raise AssetError(f"unknown request: {request!r}")
