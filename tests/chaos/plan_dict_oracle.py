"""The hand-written plan serialisation: every field listed by name.

Until ``FaultPlan`` derived ``to_dict``, ``describe``, ``is_noop`` and
``from_dict`` from its dataclass fields, each listed all eighteen by
hand.  They are kept here, verbatim but for ``self`` being an
argument, as the references the derived methods are checked against
(``tests/chaos/test_plan_round_trip.py``): the
``tests/chaos/plan_gate_oracle.py`` idiom.  ``to_dict`` is the replay
artifact every replay command embeds, so its key order matters too.
"""

from repro.chaos.faults import FaultPlan


def is_noop(self):
    """The hand-written ``FaultPlan.is_noop``."""
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
    """The hand-written ``FaultPlan.describe``."""
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
    """The hand-written ``FaultPlan.to_dict``."""
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


def from_dict(data):
    """The hand-written ``FaultPlan.from_dict``."""
    failpoint = data.get("crash_at_failpoint")
    site_crash = data.get("site_crash_at")
    join_site = data.get("join_site_at")
    leave_site = data.get("leave_site_at")
    return FaultPlan(
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
