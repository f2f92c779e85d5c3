"""What one site knows about one global group: a single record.

A :class:`~repro.cluster.site.Site` keeps one :class:`Group` per gid it
has ever heard of, in ``Site.groups``, and that record is the whole of
its knowledge: the fencing epoch, its own member's progress through the
vote (*member side*), the vote collection it runs if it coordinates
(*coordinator side*), and the poll it runs if it is taking the group
over (*taker side*).  :func:`evidence` reads a record the one way the
protocol ever asks about it; ``docs/internals.md`` ("One group record")
has the lifecycles and the verdict table.
"""

from __future__ import annotations

__all__ = ["Group", "Takeover", "evidence", "STATUS_VERDICT", "OPEN", "VOTING", "WAITING"]

# Coordinator states that still have tick work: votes outstanding, or a
# commit released but not yet witnessed.
OPEN = ("collecting", "releasing")
# Member phases that owe or await something: asked to vote, or (the last
# two, WAITING) voted commit and without a verdict.
VOTING = ("pending", "prepared", "in_doubt")
WAITING = VOTING[1:]


class Takeover:
    """A live takeover poll: the epoch it claims, the coordinator it
    replaces, and what the polled members have answered so far."""

    __slots__ = ("epoch", "old", "sites", "evidence", "tids", "next_poll", "claimed")

    def __init__(self, epoch, old, sites, claimed=False):
        self.epoch = epoch
        self.old = old
        self.sites = tuple(sorted(sites))
        self.evidence = {}  # site -> evidence state
        self.tids = {}  # site -> its member's tid value
        self.next_poll = 0
        # Whether the TakeoverRecord for this epoch is already durable
        # (a taker reborn between its two force-logs).
        self.claimed = claimed


class Group:
    """One site's record of one global group."""

    __slots__ = (
        "gid",
        # The site incarnation that derived this record: a later one
        # re-derives it on first mention (``Site._group``).
        "incarnation",
        # Fencing epoch: every group message carries its sender's, lower
        # ones are rejected, so a reappearing old coordinator cannot undo
        # a takeover.  Volatile; durable claims restore it on restart.
        "epoch",
        # Member side.  ``phase``: None -> pending -> prepared -> settled,
        # or in_doubt -> settled after a restart.  ``tids`` are the local
        # transactions the vote covered, ``voted`` whether a vote was
        # ever force-logged, ``verdict`` the fate applied here.  The two
        # leases of a prepared member are clock ticks they lapse at (0:
        # none): ``quiet_until`` paces its inquiries, ``trust_until`` is
        # how long it trusts a silent coordinator.
        "phase", "tid", "tids", "coordinator", "sites", "ttl", "overdue",
        "next_ask", "quiet_until", "trust_until", "verdict", "voted",
        # Coordinator side.  ``state``: None -> collecting -> releasing
        # -> decided -> done.  ``commit_logged``: a commit DecisionRecord
        # for this gid is durable in this site's log.
        "state", "members", "votes", "acks", "client", "deadline",
        "next_beat", "commit_logged",
        # Taker side: the live poll, and the durable TakeoverRecord.
        "takeover", "claim",
    )

    def __init__(self, gid, incarnation=0):
        self.gid = gid
        self.incarnation = incarnation
        self.epoch = 0
        self.phase = self.tid = self.coordinator = self.verdict = None
        self.tids = self.sites = ()
        self.ttl = self.overdue = self.next_ask = 0
        self.quiet_until = self.trust_until = 0
        self.voted = False
        self.state = self.members = self.votes = self.acks = self.client = None
        self.deadline = self.next_beat = 0
        self.commit_logged = False
        self.takeover = self.claim = None


def evidence(group):
    """``(state, member tid value | None)``: what this record proves.

    ``committed`` / ``aborted`` — a verdict is durable here;
    ``collecting`` — this site coordinates and has not sealed a fate (a
    released but un-witnessed commit is still volatile, so it must not
    be offered as evidence); ``prepared`` — voted commit, verdict
    unknown; ``resolved_unknown`` — voted, later resolved, resolution
    lost (defensive: unreachable once restart derives every resolved
    vote's verdict, but presuming abort over a member whose resolution
    was merely forgotten is the one unsafe guess); ``pending_prepare`` —
    accepted a PREPARE, not yet voted; ``never_prepared`` — no trace.
    """
    if group.commit_logged:
        return "committed", None
    if group.verdict is not None:
        return ("committed" if group.verdict == "commit" else "aborted"), None
    if group.state in OPEN:
        return "collecting", None
    if group.phase in WAITING:
        return "prepared", group.tid
    if group.voted:
        return "resolved_unknown", None
    if group.phase == "pending":
        return "pending_prepare", group.tid
    return "never_prepared", None


# What a STATUS_REQ is answered from the same evidence.  No information
# means abort — the presumed-abort rule that makes coordinator amnesia
# safe — but a site that voted and cannot yet place the resolution says
# *pending*, never abort: a commit witness it has not heard from may
# exist.
STATUS_VERDICT = {
    "committed": "commit",
    "aborted": "abort",
    "collecting": "pending",
    "prepared": "pending",
    "resolved_unknown": "pending",
    "pending_prepare": "abort",
    "never_prepared": "abort",
}
