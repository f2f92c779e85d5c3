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

from dataclasses import dataclass, field, replace
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
    # * ``kill_coordinator_at=k`` — whichever site the cluster last
    #   installed as group-commit coordinator loses power at step k
    #   (the sweep need not know coordinator names in advance);
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
    # ``number >= mark`` is False, so injector and fabric number and
    # record a step and ask the plan nothing else.
    first_step: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "lose_fsync_at", frozenset(self.lose_fsync_at)
        )
        object.__setattr__(
            self, "fail_flush_at", frozenset(self.fail_flush_at)
        )
        object.__setattr__(self, "drop_msg_at", frozenset(self.drop_msg_at))
        object.__setattr__(
            self, "drop_msg_kinds", frozenset(self.drop_msg_kinds)
        )
        object.__setattr__(self, "dup_msg_at", frozenset(self.dup_msg_at))
        object.__setattr__(
            self, "delay_msg_at", frozenset(self.delay_msg_at)
        )
        object.__setattr__(
            self,
            "partition_groups",
            tuple(tuple(group) for group in self.partition_groups),
        )
        marks = (self.site_crash_at, self.join_site_at, self.leave_site_at)
        numbers = {
            self.crash_at, self.torn_page_at, self.partition_at,
            self.heal_at, self.kill_coordinator_at,
            *(mark[-1] for mark in marks if mark),  # (..., step number)
            *self.lose_fsync_at, *self.fail_flush_at,
            *self.drop_msg_at, *self.dup_msg_at, *self.delay_msg_at,
        } - {None}
        object.__setattr__(
            self, "first_step",
            0 if self.drop_msg_kinds else min(numbers, default=inf),
        )

    @property
    def is_noop(self):
        return (
            self.crash_at is None
            and self.torn_page_at is None
            and not self.lose_fsync_at
            and not self.fail_flush_at
            and self.crash_at_failpoint is None
            and not self.drop_msg_at
            and not self.drop_msg_kinds
            and not self.dup_msg_at
            and not self.delay_msg_at
            and self.partition_at is None
            and self.site_crash_at is None
            and self.kill_coordinator_at is None
            and self.join_site_at is None
            and self.leave_site_at is None
        )

    def describe(self):
        parts = []
        if self.crash_at is not None:
            parts.append(f"crash_at={self.crash_at}")
        if self.torn_page_at is not None:
            parts.append(f"torn_page_at={self.torn_page_at}")
        if self.lose_fsync_at:
            parts.append(f"lose_fsync_at={sorted(self.lose_fsync_at)}")
        if self.fail_flush_at:
            parts.append(f"fail_flush_at={sorted(self.fail_flush_at)}")
        if self.crash_at_failpoint is not None:
            parts.append(f"crash_at_failpoint={self.crash_at_failpoint}")
        if self.keep_tail:
            parts.append("keep_tail=True")
        if self.drop_msg_at:
            parts.append(f"drop_msg_at={sorted(self.drop_msg_at)}")
        if self.drop_msg_kinds:
            parts.append(f"drop_msg_kinds={sorted(self.drop_msg_kinds)}")
        if self.dup_msg_at:
            parts.append(f"dup_msg_at={sorted(self.dup_msg_at)}")
        if self.delay_msg_at:
            parts.append(f"delay_msg_at={sorted(self.delay_msg_at)}")
        if self.partition_at is not None:
            groups = "|".join(
                ",".join(group) for group in self.partition_groups
            )
            healed = f"..{self.heal_at}" if self.heal_at is not None else ""
            parts.append(
                f"partition_at={self.partition_at}{healed} ({groups})"
            )
        if self.site_crash_at is not None:
            parts.append(f"site_crash_at={self.site_crash_at}")
        if self.kill_coordinator_at is not None:
            parts.append(f"kill_coordinator_at={self.kill_coordinator_at}")
        if self.join_site_at is not None:
            parts.append(f"join_site_at={self.join_site_at}")
        if self.leave_site_at is not None:
            parts.append(f"leave_site_at={self.leave_site_at}")
        return ", ".join(parts) if parts else "no faults"

    def to_dict(self):
        """JSON-serializable form (the replay artifact format)."""
        return {
            "crash_at": self.crash_at,
            "torn_page_at": self.torn_page_at,
            "lose_fsync_at": sorted(self.lose_fsync_at),
            "fail_flush_at": sorted(self.fail_flush_at),
            "crash_at_failpoint": (
                list(self.crash_at_failpoint)
                if self.crash_at_failpoint is not None
                else None
            ),
            "keep_tail": self.keep_tail,
            "label": self.label,
            "drop_msg_at": sorted(self.drop_msg_at),
            "drop_msg_kinds": sorted(self.drop_msg_kinds),
            "dup_msg_at": sorted(self.dup_msg_at),
            "delay_msg_at": sorted(self.delay_msg_at),
            "partition_at": self.partition_at,
            "heal_at": self.heal_at,
            "partition_groups": [
                list(group) for group in self.partition_groups
            ],
            "site_crash_at": (
                list(self.site_crash_at)
                if self.site_crash_at is not None
                else None
            ),
            "kill_coordinator_at": self.kill_coordinator_at,
            "join_site_at": (
                list(self.join_site_at)
                if self.join_site_at is not None
                else None
            ),
            "leave_site_at": (
                list(self.leave_site_at)
                if self.leave_site_at is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data):
        failpoint = data.get("crash_at_failpoint")
        site_crash = data.get("site_crash_at")
        join_site = data.get("join_site_at")
        leave_site = data.get("leave_site_at")
        return cls(
            crash_at=data.get("crash_at"),
            torn_page_at=data.get("torn_page_at"),
            lose_fsync_at=frozenset(data.get("lose_fsync_at", ())),
            fail_flush_at=frozenset(data.get("fail_flush_at", ())),
            crash_at_failpoint=tuple(failpoint) if failpoint else None,
            keep_tail=bool(data.get("keep_tail", False)),
            label=data.get("label", ""),
            drop_msg_at=frozenset(data.get("drop_msg_at", ())),
            drop_msg_kinds=frozenset(data.get("drop_msg_kinds", ())),
            dup_msg_at=frozenset(data.get("dup_msg_at", ())),
            delay_msg_at=frozenset(data.get("delay_msg_at", ())),
            partition_at=data.get("partition_at"),
            heal_at=data.get("heal_at"),
            partition_groups=tuple(
                tuple(group) for group in data.get("partition_groups", ())
            ),
            site_crash_at=tuple(site_crash) if site_crash else None,
            kill_coordinator_at=data.get("kill_coordinator_at"),
            join_site_at=tuple(join_site) if join_site else None,
            leave_site_at=tuple(leave_site) if leave_site else None,
        )

    def with_(self, **changes):
        """A copy with fields replaced (sweep convenience)."""
        return replace(self, **changes)


# How much of a torn page survives: the first sector's worth of the new
# image lands, the rest of the page keeps its previous contents.
TORN_PREFIX = 512


@dataclass
class FaultInjector:
    """Counts I/O steps, records a trace, and fires the planned faults.

    One injector instruments one storage stack.  After a fault fires the
    injector *disarms*: post-mortem inspection and restart recovery run
    over the same devices without re-triggering the plan (arm a fresh
    injector to chaos-test recovery itself).
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    step_count: int = 0
    trace: list = field(default_factory=list)
    fired: IoStep = None
    armed: bool = True
    lied_fsyncs: int = 0
    failed_flushes: int = 0
    failpoint_counts: dict = field(default_factory=dict)

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
        injector is disarmed).  Partition and site-crash effects are the
        fabric's job — it reads the plan and the step number itself —
        because they depend on fabric state (group membership, link
        endpoints) the injector deliberately knows nothing about.
        """
        if not self.armed:
            return "deliver", None
        step = self._next(NET_MSG, f"{src}->{dst}:{kind}")
        plan = self.plan
        if step.number < plan.first_step:
            return "deliver", step
        if step.number in plan.drop_msg_at or kind in plan.drop_msg_kinds:
            return "drop", step
        if step.number in plan.dup_msg_at:
            return "duplicate", step
        if step.number in plan.delay_msg_at:
            return "delay", step
        return "deliver", step

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
