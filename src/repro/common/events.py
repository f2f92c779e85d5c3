"""Structured event tracing.

The transaction manager emits an :class:`Event` for every significant event
in the ACTA sense — initiation, begin, operation invocation, delegation,
permit grants, dependency formation, commit, and abort.  Subscribers include:

* the ACTA history recorder (:mod:`repro.acta.history`), which replays the
  events into formal histories for serializability analysis;
* the benchmark harness, which derives blocked-time and abort-rate metrics;
* tests, which assert on exact event sequences.

Tracing is pull-free and cheap: a call site on a hot path tests its kind
against the bus's :attr:`~EventBus.watched` before it builds the call, so
an event nobody subscribed to costs one set-membership test.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field


class EventKind(enum.Enum):
    """The kinds of significant events the transaction manager emits."""

    INITIATE = "initiate"
    BEGIN = "begin"
    COMPLETE = "complete"

    READ_LOCK = "read_lock"
    WRITE_LOCK = "write_lock"
    LOCK_BLOCKED = "lock_blocked"
    LOCK_SUSPENDED = "lock_suspended"

    READ = "read"
    WRITE = "write"
    OPERATION = "operation"

    DELEGATE = "delegate"
    PERMIT = "permit"
    FORM_DEPENDENCY = "form_dependency"

    PARTIAL_ROLLBACK = "partial_rollback"

    PREPARED = "prepared"

    COMMIT_REQUESTED = "commit_requested"
    COMMIT_BLOCKED = "commit_blocked"
    COMMITTED = "committed"
    ABORT_REQUESTED = "abort_requested"
    ABORTED = "aborted"

    DEADLOCK_VICTIM = "deadlock_victim"

    # Members are singletons compared by identity, so identity is a valid
    # hash — and a C-level one: ``Enum.__hash__`` is a Python frame, paid
    # by every ``emit`` that probes the watched set for a bus with narrow
    # subscribers (the resilience and observability kits).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Event:
    """One traced event.

    ``tid`` is the transaction the event concerns; ``detail`` carries
    kind-specific payload (object ids, peer tids, dependency types).
    ``tick`` is the logical-clock value at emission, giving a total order.
    """

    kind: EventKind
    tid: object
    tick: int
    detail: dict = field(default_factory=dict)

    def __repr__(self):
        extras = ", ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"Event({self.kind.value}, {self.tid!r}, t={self.tick}" + (
            f", {extras})" if extras else ")"
        )


class EventBus:
    """Fan-out of events to any number of subscribers.

    Subscribers are callables taking one :class:`Event`.  Subscription order
    is delivery order.  Thread-safe for the threaded runtime.

    A subscriber may restrict itself to a set of kinds; an emit whose kind
    nobody listens to skips Event construction (and the clock tick)
    entirely, so a narrow subscriber — the resilience DeadlineTable wants
    three kinds out of twenty — does not put the whole event machinery on
    the manager's hot path.  ``watched`` is the set of kinds somebody
    subscribed to: ``if kind in bus.watched: bus.emit(kind, ...)``
    skips the call too.
    """

    def __init__(self, clock=None):
        self._subscribers = []  # (callback, frozenset of kinds | None)
        self.watched = frozenset()  # kinds with at least one subscriber
        self._dispatch = {}  # kind -> tuple of callbacks (lazy cache)
        self._clock = clock
        # Clockless buses still owe subscribers the documented "tick
        # gives a total order" contract (the ACTA recorder and span
        # ordering rely on it), so emission falls back to a private
        # monotonic counter rather than stamping every event 0.
        self._fallback_tick = 0
        self._lock = threading.Lock()

    def subscribe(self, callback, kinds=None):
        """Register ``callback`` for every subsequent event (or only the
        event kinds in ``kinds``, when given)."""
        with self._lock:
            self._subscribers.append(
                (callback, frozenset(kinds) if kinds is not None else None)
            )
            self._rewire()
        return callback

    def unsubscribe(self, callback):
        """Stop delivering events to ``callback`` (no-op if unknown).

        Matches by *identity*, and removes only the first (oldest)
        registration: a callback class overriding ``__eq__`` must not be
        able to detach someone else's subscriber, and a twice-subscribed
        callback keeps its second registration.
        """
        with self._lock:
            for index, entry in enumerate(self._subscribers):
                if entry[0] is callback:
                    del self._subscribers[index]
                    break
            self._rewire()

    def _rewire(self):
        """Recompute the emit fast path (caller holds the lock)."""
        self._dispatch = {}
        watched = set()
        for __, kinds in self._subscribers:
            watched |= set(EventKind) if kinds is None else kinds
        self.watched = frozenset(watched)

    def _targets_for(self, kind):
        with self._lock:
            targets = tuple(
                callback
                for callback, kinds in self._subscribers
                if kinds is None or kind in kinds
            )
            self._dispatch[kind] = targets
        return targets

    def emit(self, kind, tid, **detail):
        """Build an :class:`Event` and deliver it to its subscribers.

        A bus nobody watches returns at one truth test (no hash of
        ``kind``), and a kind nobody watches at one set-membership test,
        whatever the narrow subscribers.  Both run after the caller has
        paid for the call and its keyword dict: hot call sites test their
        kind against :attr:`watched` first and call only for a watched
        kind.
        """
        if not self.watched or kind not in self.watched:
            return None
        targets = self._dispatch.get(kind)
        if targets is None:
            targets = self._targets_for(kind)
        if self._clock is not None:
            tick = self._clock.tick()
        else:
            with self._lock:
                self._fallback_tick += 1
                tick = self._fallback_tick
        event = Event(kind=kind, tid=tid, tick=tick, detail=detail)
        for callback in targets:
            callback(event)
        return event


class EventRecorder:
    """A simple subscriber that accumulates events into a list.

    Convenient in tests::

        recorder = EventRecorder()
        bus.subscribe(recorder)
        ...
        assert recorder.kinds() == [EventKind.INITIATE, EventKind.BEGIN]
    """

    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)

    def kinds(self):
        """Return the list of event kinds in emission order."""
        return [event.kind for event in self.events]

    def of_kind(self, kind):
        """Return only the events of the given kind, in order."""
        return [event for event in self.events if event.kind is kind]

    def clear(self):
        """Forget all recorded events."""
        self.events.clear()
