"""Fold oracle: the restart that re-derived every group record at once.

``Site.restart`` used to wipe every :class:`Group` the site had ever
heard of in place and fold the group evidence of every gid its log
names, whether or not the group still had work.  A restart now
folds only the open votes and the decisions owed a re-send; every other
record is re-derived on its first mention, through ``Site._group``.
The eager restart is kept here as the reference the lazy one is checked
against (:func:`eager_restart`, and :func:`eager_fold` to run a site
with it), beside :func:`ledger_state`, what a site's ledger holds, field
by field.
"""

from contextlib import contextmanager
from unittest.mock import patch

from repro.cluster.group import Group, Takeover, evidence
from repro.cluster.site import Site

# Every field of a record but the incarnation that derived it.
FIELDS = tuple(name for name in Group.__slots__ if name != "incarnation")


def eager_restart(site):
    """``Site.restart`` as it was: every record wiped, every gid the log
    names folded, then the decisions re-sent and the claims resumed.
    (One correction rides along with the lazy fold's: a vote below the
    restart point is judged against the prefix's winners too.)"""
    if site.up:
        return site.recovery_report
    report = site.storage.recover()
    site._boot()
    site.incarnation += 1
    site.recovery_report = report
    for g in site.groups.values():
        g.__init__(g.gid, site.incarnation)
    claims, decisions, votes, committed = site.storage.log.group_evidence()
    winners = report.winners | committed
    for gid in claims.keys() | decisions.keys() | votes.keys():
        g = site._group(gid)
        g.claim = claims.get(gid)
        if g.claim is not None:
            g.epoch = g.claim.epoch
        decision, vote = decisions.get(gid), report.in_doubt_votes.get(gid)
        g.voted = gid in votes
        if decision is not None:
            g.verdict = decision.verdict
            g.commit_logged = decision.verdict == "commit"
        elif g.voted and vote is None:
            g.verdict = site._resolved_verdict(votes[gid], winners)
        if vote is not None:
            g.tid, g.tids = vote.tid, vote.prepared_tids()
            g.coordinator, g.sites = vote.coordinator, vote.sites
            site._move(g, "phase", "in_doubt")
        elif g.verdict is not None:
            g.phase = "settled"
    for gid, decision in sorted(decisions.items()):
        g = site.groups[gid]
        if g.phase == "in_doubt":
            site._finish_in_doubt(g, decision.verdict)
            site._move(g, "phase", "settled")
        for participant in decision.participants:
            site._send_decision(g, participant, decision.verdict, g.epoch)
    for gid in sorted(site.active):
        g = site.groups[gid]
        if g.claim is not None:
            g.takeover = Takeover(
                g.claim.epoch, g.claim.old_coordinator, g.sites, claimed=True
            )
            site._complete_takeover(g, g.claim.verdict)
    return report


@contextmanager
def eager_fold():
    """Sites restart with :func:`eager_restart`: no record is ever left
    for ``Site._group`` to re-derive."""
    with patch.object(Site, "restart", eager_restart):
        yield


def _value(value):
    if isinstance(value, Takeover):
        return tuple(getattr(value, name) for name in Takeover.__slots__)
    return value


def ledger_state(site):
    """``(records, active)``: gid -> every field of the record read
    through ``Site._group`` and its :func:`evidence`; and the has-work
    index."""
    records = {
        g.gid: (tuple(_value(getattr(g, name)) for name in FIELDS), evidence(g))
        for g in site.ledger()
    }
    return records, sorted(site.active)
