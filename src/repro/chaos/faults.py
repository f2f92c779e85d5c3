"""Deterministic fault injection: numbered I/O steps and fault plans.

Every instrumented I/O site in the storage stack — page writes, page-file
syncs, log appends, log flushes, buffer write-back boundaries, and
group-commit enrollments — reports to a :class:`FaultInjector` before it
performs its effect.  The injector numbers the steps (1, 2, 3, …), records
them as a trace, and consults its :class:`FaultPlan`:

* ``crash_at=k`` — raise :class:`CrashPoint` *instead of* performing step
  ``k``; the step's effect (and everything after) never happens, exactly
  like a process death between two system calls;
* ``torn_page_at=k`` — step ``k`` must be a page write; only a prefix of
  the new image reaches the platter (the old tail survives), then the
  process dies — the classic torn-write failure;
* ``lose_fsync_at={k, …}`` — step ``k`` must be a flush; it *reports
  success without making anything durable* — the lying-fsync failure mode
  of consumer drives and some virtualized block devices;
* ``crash_at_failpoint=(name, nth)`` — crash at the *nth* occurrence of a
  named semantic failpoint (the transaction manager's failure hooks),
  letting sweeps cut between semantic steps of commit/abort, not only
  between I/O calls;
* ``fail_flush_at={k, …}`` — step ``k`` must be a flush; it raises
  :class:`~repro.common.errors.TransientIOError` *without* crashing the
  process — the transient device error a retry policy is meant to
  absorb.  The injector stays armed, and the retried flush gets a fresh
  step number, so a single planned fault fails exactly once.

Crash tail behaviour is controlled by ``keep_tail``: on a real crash the
OS may or may not have written back volatile buffers, so the harness
models both extremes — ``keep_tail=False`` (default) loses every
unflushed log record, ``keep_tail=True`` persists them all.

Because step numbering is deterministic (the whole stack is), a plan plus
a scenario name is a complete reproduction recipe; :mod:`repro.chaos.replay`
turns one into a command line.

:class:`CrashPoint` derives from ``BaseException`` on purpose: the
simulated process death must not be swallowed by ``except Exception``
handlers in the code under test (the same reason ``KeyboardInterrupt``
does).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial
from math import inf
from typing import NamedTuple

from repro.common.errors import TransientIOError


class CrashPoint(BaseException):
    """The simulated process death injected by a :class:`FaultInjector`."""

    def __init__(self, step, kind, detail=""):
        self.step = step
        self.kind = kind
        self.detail = detail
        super().__init__(f"injected crash at step {step} ({kind}{': ' + detail if detail else ''})")


# The fault-point taxonomy (see docs/internals.md, "The chaos harness").
PAGE_WRITE = "page_write"  # DiskManager.write_page
PAGE_SYNC = "page_sync"  # DiskManager.sync
LOG_APPEND = "log_append"  # log device append
LOG_FLUSH = "log_flush"  # log device flush (the durability point)
POOL_FLUSH = "pool_flush"  # buffer-pool write-back boundary
GC_ENROLL = "gc_enroll"  # FlushCoalescer commit enrollment
IO_KINDS = (PAGE_WRITE, PAGE_SYNC, LOG_APPEND, LOG_FLUSH, POOL_FLUSH, GC_ENROLL)

# Network steps: every message send on the simulated fabric is numbered
# through the same injector as the storage I/O, so one plan (and one
# step universe) covers both storage and network faults deterministically.
NET_MSG = "net_msg"  # NetworkFabric.send


class IoStep(NamedTuple):
    """One numbered I/O step as observed by the injector."""

    number: int
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic description of what should go wrong, and when.

    The default plan injects nothing — running under it only *counts*
    steps, which is how sweeps learn the step universe they must cover.
    """

    crash_at: int = None
    torn_page_at: int = None
    lose_fsync_at: frozenset = frozenset()
    fail_flush_at: frozenset = frozenset()
    crash_at_failpoint: tuple = None  # (name, nth occurrence)
    keep_tail: bool = False
    label: str = ""
    # Network faults (NET_MSG steps on the simulated fabric):
    # * ``drop_msg_at`` — the message sent at step k silently vanishes;
    # * ``drop_msg_kinds`` — every message of the named kinds vanishes
    #   (e.g. ``{"decision"}`` blacks out the whole commit release,
    #   including heartbeat-paced resends at step numbers no probe of a
    #   healthy run could predict) while the injector stays armed;
    # * ``dup_msg_at`` — it is delivered twice (at-least-once links);
    # * ``delay_msg_at`` — its delivery slips one pump round (reordering
    #   past everything sent in the same round);
    # * ``partition_at`` / ``heal_at`` — from step k (until step h, or
    #   forever) the fabric severs links between ``partition_groups``;
    # * ``site_crash_at=(site, k)`` — the named site loses power when
    #   message step k is sent (whichever site sent it);
    # * ``kill_coordinator_at=k`` — whichever site coordinates the
    #   cluster's group commit in flight loses power at step k (the
    #   sweep need not know coordinator names in advance);
    # * ``join_site_at=(name, k)`` — a new site named ``name`` joins the
    #   cluster at step k (executed at the next cluster tick boundary);
    # * ``leave_site_at=(leaver, successor, k)`` — ``leaver`` begins an
    #   object-range handoff to ``successor`` at step k.
    drop_msg_at: frozenset = frozenset()
    drop_msg_kinds: frozenset = frozenset()
    dup_msg_at: frozenset = frozenset()
    delay_msg_at: frozenset = frozenset()
    partition_at: int = None
    heal_at: int = None
    partition_groups: tuple = ()
    site_crash_at: tuple = None  # (site name, step number)
    kill_coordinator_at: int = None
    join_site_at: tuple = None  # (site name, step number)
    leave_site_at: tuple = None  # (leaver, successor, step number)
    # Derived, never serialised or compared: the lowest step number at
    # which anything above can fire (kind-keyed drops: any step, 0; an
    # empty plan: never, inf).  Below it every membership test and every
    # ``number >= mark`` is False, so the injector numbers and records
    # a step and asks the plan nothing else.
    first_step: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # One form per field, whatever the caller (or a JSON dict) gave:
        # step sets are frozensets, marks tuples (an empty one None).
        put = partial(object.__setattr__, self)
        for spec in fields(self):
            if isinstance(spec.default, frozenset):
                put(spec.name, frozenset(getattr(self, spec.name)))
            elif spec.type == "tuple" and spec.default is None:
                put(spec.name, tuple(getattr(self, spec.name) or ()) or None)
        put("partition_groups", tuple(map(tuple, self.partition_groups)))
        marks = (self.site_crash_at, self.join_site_at, self.leave_site_at)
        numbers = {
            self.crash_at, self.torn_page_at, self.partition_at,
            self.heal_at, self.kill_coordinator_at,
            *(mark[-1] for mark in marks if mark),  # (..., step number)
            *self.lose_fsync_at, *self.fail_flush_at,
            *self.drop_msg_at, *self.dup_msg_at, *self.delay_msg_at,
        } - {None}
        first = 0 if self.drop_msg_kinds else min(numbers, default=inf)
        put("first_step", first)

    def _given(self):
        """``(name, value)`` of every field off its default, in field
        order, but the qualifiers (``label``; ``heal_at`` and
        ``partition_groups``, which only qualify ``partition_at``)."""
        return [
            (spec.name, getattr(self, spec.name))
            for spec in fields(self)
            if spec.init
            and spec.name not in ("label", "heal_at", "partition_groups")
            and getattr(self, spec.name) != spec.default
        ]

    @property
    def is_noop(self):
        """Whether nothing is planned to go wrong (``keep_tail`` only
        says what a crash keeps)."""
        return all(name == "keep_tail" for name, __ in self._given())

    def describe(self):
        parts = []
        for name, value in self._given():
            if name == "partition_at":
                groups = "|".join(
                    ",".join(group) for group in self.partition_groups
                )
                healed = f"..{self.heal_at}" if self.heal_at is not None else ""
                value = f"{value}{healed} ({groups})"
            elif isinstance(value, frozenset):
                value = sorted(value)
            parts.append(f"{name}={value}")
        return ", ".join(parts) if parts else "no faults"

    def to_dict(self):
        """JSON-serializable form (the replay artifact format): every
        field in field order, step sets sorted, marks as lists."""
        return {
            spec.name: _plain(getattr(self, spec.name))
            for spec in fields(self)
            if spec.init
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def with_(self, **changes):
        """A copy with fields replaced (sweep convenience)."""
        return replace(self, **changes)


def _plain(value):
    """A plan field as JSON holds it: sets sorted, tuples as lists."""
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


# How much of a torn page survives: the first sector's worth of the new
# image lands, the rest of the page keeps its previous contents.
TORN_PREFIX = 512


@dataclass
class FaultInjector:
    """Counts I/O steps, records a trace, and fires the planned faults.

    It is the only reader of a :class:`FaultPlan`: product code calls
    its step methods (``page_write``, ``page_sync``, ``log_append``,
    ``log_flush``, ``pool_flush``, ``gc_enroll``, ``message``,
    ``failpoint``) and never looks at the plan.  One injector
    instruments one storage stack, or a whole cluster it is bound to
    (:meth:`bind`).  After a fault fires the injector *disarms*:
    post-mortem inspection and restart recovery run over the same
    devices without re-triggering the plan (arm a fresh injector to
    chaos-test recovery itself).
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    step_count: int = 0
    trace: list = field(default_factory=list)
    fired: IoStep = None
    armed: bool = True
    lied_fsyncs: int = 0
    failed_flushes: int = 0
    failpoint_counts: dict = field(default_factory=dict)
    # Where the plan's cluster marks fire (:meth:`bind`), and which of
    # them have fired: each fires once.
    cluster: object = field(default=None, repr=False, compare=False)
    marks_fired: set = field(default_factory=set)

    # -- bookkeeping -------------------------------------------------------

    def disarm(self):
        """Stop injecting; steps are no longer counted either."""
        self.armed = False

    def _next(self, kind, detail=""):
        """Number and record a step; from the plan's first step on, ask
        it the question every site shares (``crash_at``)."""
        self.step_count = number = self.step_count + 1
        # Not IoStep(...): its generated constructor is a Python frame.
        step = tuple.__new__(IoStep, (number, kind, detail))
        self.trace.append(step)
        if number >= self.plan.first_step and self.plan.crash_at == number:
            self._crash(step)
        return step

    def _crash(self, step):
        self.fired = step
        self.armed = False
        raise CrashPoint(step.number, step.kind, step.detail)

    # -- instrumented sites ------------------------------------------------

    def page_write(self, page_id, raw, install):
        """A page write: ``install(image)`` performs the actual store.

        ``install`` must accept an image *shorter* than a full page and
        overlay it onto the current on-disk image (the old tail survives)
        — that is how the torn write reaches the platter.
        """
        if not self.armed:
            install(raw)
            return
        step = self._next(PAGE_WRITE, f"page={page_id}")
        if (
            step.number >= self.plan.first_step
            and self.plan.torn_page_at == step.number
        ):
            install(bytes(raw[:TORN_PREFIX]))  # the old tail survives
            self.fired = step
            self.armed = False
            raise CrashPoint(step.number, "torn_" + PAGE_WRITE, step.detail)
        install(raw)

    def page_sync(self, do_sync):
        """A page-file fsync."""
        if self.armed:
            self._next(PAGE_SYNC)
        do_sync()

    def log_append(self, nbytes, do_append):
        """A log-device append."""
        if self.armed:
            self._next(LOG_APPEND, f"bytes={nbytes}")
        do_append()

    def log_flush(self, do_flush):
        """A log-device flush; may be *lied about* (lost fsync)."""
        if not self.armed:
            do_flush()
            return
        step = self._next(LOG_FLUSH)
        if step.number >= self.plan.first_step:
            if step.number in self.plan.fail_flush_at:
                # Transient device error: raise, stay armed.  A retry of
                # the flush is a *new* step number, so this fires once.
                self.failed_flushes += 1
                raise TransientIOError(
                    f"injected transient flush failure at step {step.number}",
                    op="log.flush",
                )
            if step.number in self.plan.lose_fsync_at:
                self.lied_fsyncs += 1
                return  # report success, make nothing durable
        do_flush()

    def pool_flush(self, dirty_count):
        """The boundary before a buffer pool writes back dirty pages."""
        if self.armed:
            self._next(POOL_FLUSH, f"dirty={dirty_count}")

    def gc_enroll(self, pending_commits):
        """A commit enrolling in the group-commit flush batch."""
        if self.armed:
            self._next(GC_ENROLL, f"pending={pending_commits}")

    def message(self, src, dst, kind):
        """A message send on the simulated fabric; returns a verdict.

        The verdict is ``(action, step)`` with ``action`` one of
        ``"deliver"``, ``"drop"``, ``"duplicate"``, ``"delay"`` (and
        ``step`` the recorded :class:`IoStep`, or ``None`` when the
        injector is disarmed).  The plan's cluster marks due at this
        step fire here too, before the fabric applies link state — so
        the message whose step installs a partition is already subject
        to it.
        """
        if not self.armed:
            return "deliver", None
        step = self._next(NET_MSG, f"{src}->{dst}:{kind}")
        plan = self.plan
        if step.number < plan.first_step:
            return "deliver", step
        self._fire_marks(step.number)
        if step.number in plan.drop_msg_at or kind in plan.drop_msg_kinds:
            return "drop", step
        if step.number in plan.dup_msg_at:
            return "duplicate", step
        if step.number in plan.delay_msg_at:
            return "delay", step
        return "deliver", step

    def bind(self, cluster):
        """Aim the plan's cluster marks at ``cluster``; returns it.  They
        act through its console: ``partition``, ``heal``, ``crash_site``
        (a coordinator kill's target is ``cluster.coordinator``), and
        ``cluster.pending_churn`` for a join or leave at its next tick."""
        self.cluster = cluster
        return cluster

    def _due(self, mark, step, number):
        if step is None or number < step or mark in self.marks_fired:
            return False
        if self.cluster is None:
            raise RuntimeError(f"{mark} due at step {number}, no cluster bound")
        return True

    def _fire_marks(self, number):
        """Fire each cluster mark of the plan once, from its step on."""
        plan, fired, cluster = self.plan, self.marks_fired, self.cluster
        if self._due("partition", plan.partition_at, number):
            fired.add("partition")
            cluster.partition(*plan.partition_groups)
        if "partition" in fired and self._due("heal", plan.heal_at, number):
            fired.add("heal")
            cluster.heal()
        site_crash = plan.site_crash_at or (None, None)
        if self._due("site crash", site_crash[1], number):
            fired.add("site crash")
            cluster.crash_site(site_crash[0])
        if (
            self._due("coordinator kill", plan.kill_coordinator_at, number)
            # No group in flight yet: hold the fire until there is one,
            # so every step of a sweep kills *some* coordinator.
            and cluster.coordinator is not None
        ):
            fired.add("coordinator kill")
            cluster.crash_site(cluster.coordinator)
        join = plan.join_site_at or (None, None)
        if self._due("join", join[1], number):
            fired.add("join")
            cluster.pending_churn.append(("join", join[0]))
        leave = plan.leave_site_at or (None, None, None)
        if self._due("leave", leave[2], number):
            fired.add("leave")
            cluster.pending_churn.append(("leave", leave[:2]))

    def failpoint(self, name):
        """A named semantic failpoint (transaction-manager failure hook).

        Failpoints have their own per-name occurrence numbering, separate
        from the I/O step counter: ``crash_at_failpoint=("abort.undone", 2)``
        crashes at the second time that point is reached.
        """
        if not self.armed:
            return
        count = self.failpoint_counts.get(name, 0) + 1
        self.failpoint_counts[name] = count
        target = self.plan.crash_at_failpoint
        if target is not None and target == (name, count):
            step = IoStep(self.step_count, f"failpoint:{name}", f"nth={count}")
            self._crash(step)

    # -- accounting --------------------------------------------------------

    def steps_of_kind(self, *kinds):
        """The numbers of recorded steps matching ``kinds`` (all if empty)."""
        if not kinds:
            return [step.number for step in self.trace]
        wanted = set(kinds)
        return [step.number for step in self.trace if step.kind in wanted]
