"""One evidence function against the two cascades it replaces.

``tests/cluster/evidence_oracle.py`` holds the parent's ``_h_status_req``
verdict cascade and ``_takeover_evidence`` verbatim, over the gid-keyed
maps they read.  Every :class:`~repro.cluster.group.Group` the fields can
spell (member phase x verdict x coordinator state x ``commit_logged`` x
``voted`` x taking over: 600 records) is projected onto those maps;
on every *representable* one ``evidence()`` must equal the old takeover
evidence and ``STATUS_VERDICT`` the old status verdict — except where
the two old cascades disagreed with *each other*, which is accounted for
record by record below.
"""

import itertools

from repro.cluster.group import (
    OPEN,
    STATUS_VERDICT,
    WAITING,
    Group,
    Takeover,
    evidence,
)
from repro.common.ids import Tid
from tests.cluster.evidence_oracle import OldMaps

GID, MEMBER = 7, Tid(5)
SEALED = ("decided", "done")

# What a record at rest satisfies, each by name: a record that breaks one
# cannot be written by ``Site`` (handlers run to completion between
# reads), so the cascades' answers on it are not behaviour.
INVARIANTS = {
    "settled-has-verdict": lambda g: g.phase != "settled" or g.verdict,
    # One verdict field: the coordinator's is the one applied locally.
    "sealed-has-verdict": lambda g: g.state not in SEALED or g.verdict,
    "waiting-has-voted": lambda g: g.phase not in WAITING or g.voted,
    # ``_start_takeover`` asserts it: only a waiting member takes over.
    "taker-has-voted": lambda g: g.takeover is None or g.voted,
    "logged-commit-applied": lambda g: not g.commit_logged or g.verdict == "commit",
    # What ``Site._resolved_verdict`` restores on restart (and the
    # ``restart_forgets_resolved_votes`` mutation breaks).
    "vote-never-forgotten": lambda g: (
        not g.voted or g.phase in WAITING or g.verdict
    ),
}


def every_record():
    for phase, verdict, state, logged, voted, taking in itertools.product(
        (None, "pending", "prepared", "in_doubt", "settled"),
        (None, "commit", "abort"),
        (None, "collecting", "releasing", "decided", "done"),
        (False, True),
        (False, True),
        (False, True),
    ):
        g = Group(GID)
        g.phase, g.verdict, g.state, g.tid = phase, verdict, state, MEMBER
        g.commit_logged, g.voted = logged, voted
        if taking:
            g.takeover = Takeover(1, "old", ())
        yield g


def broken(g):
    return [name for name, holds in INVARIANTS.items() if not holds(g)]


class _Vote:
    tid = MEMBER


def old_maps(g):
    """The parent's containers holding what ``g`` holds."""
    maps = OldMaps()
    if g.phase == "pending":
        maps.pending_prepares[GID] = {"tid": g.tid}
    elif g.phase == "prepared":
        maps.prepared[GID] = {"tid": g.tid}
    elif g.phase == "in_doubt":
        maps.in_doubt[GID] = {"record": _Vote}
    if g.verdict is not None:
        maps.settled_gids[GID] = g.verdict
    if g.state is not None:
        # The parent's entry carried its own verdict: None while
        # collecting, commit while releasing, then the one applied.
        held = {"collecting": None, "releasing": "commit"}.get(g.state, g.verdict)
        maps.coordinating[GID] = {"state": g.state, "verdict": held}
    if g.commit_logged:
        maps.durable_decisions[GID] = "commit"
    if g.voted:
        maps.voted_gids.add(GID)
    if g.takeover is not None:
        maps.taking_over[GID] = {}
    return maps


def open_with_a_verdict(g):
    """The one representable state the old cascades answered differently:
    a coordinator still collecting (or releasing) whose site has already
    applied a verdict — a superseded coordinator that learned the
    usurper's decision from a STATUS_REP, or one reborn and asked to
    begin the same gid again.  ``_takeover_evidence`` looked at the
    applied verdict first and said ``committed`` / ``aborted``;
    ``_h_status_req`` looked at the open state first and said
    ``pending``.  Kept: the verdict — it is durable here, it is what
    every takeover poll of this site was already told, and ``pending``
    only made the asker ask again."""
    return g.state in OPEN and g.verdict is not None


def test_the_enumeration_is_the_size_it_claims():
    records = list(every_record())
    assert len(records) == 600
    assert sum(not broken(g) for g in records) == 213


def test_evidence_equals_the_old_takeover_evidence():
    for g in every_record():
        if not broken(g):
            assert evidence(g) == old_maps(g)._takeover_evidence(GID), vars_of(g)


def test_the_verdict_table_equals_the_old_status_cascade():
    kept = 0
    for g in every_record():
        if broken(g):
            continue
        verdict = STATUS_VERDICT[evidence(g)[0]]
        if open_with_a_verdict(g):
            kept += 1
            assert old_maps(g).status_verdict(GID) == "pending"
            assert verdict == g.verdict, vars_of(g)
        else:
            assert verdict == old_maps(g).status_verdict(GID), vars_of(g)
    assert kept == 78


def test_every_disagreement_of_the_old_cascades_is_accounted_for():
    """Where the parent's two cascades told the same record two different
    things, the record either breaks a named invariant or is the one
    kept answer above — nothing else."""
    kept, unrepresentable, named = 0, 0, set()
    for g in every_record():
        maps = old_maps(g)
        told_takers = STATUS_VERDICT[maps._takeover_evidence(GID)[0]]
        if told_takers == maps.status_verdict(GID):
            continue
        if broken(g):
            unrepresentable += 1
            named.update(broken(g))
        else:
            assert open_with_a_verdict(g), vars_of(g)
            kept += 1
    assert (kept, unrepresentable) == (78, 247)
    assert named == set(INVARIANTS)  # none is idle in this accounting


def test_a_forgotten_vote_is_never_no_trace():
    """The one place ``evidence()`` is *stricter* than the old takeover
    cascade: a voted record with no resolution that re-accepted a PREPARE
    (``vote-never-forgotten`` broken, so mutation-only) answers
    ``resolved_unknown`` — blocking a taker — where the parent said
    ``pending_prepare``, which a taker presumes abort over."""
    g = Group(GID)
    g.phase, g.tid, g.voted = "pending", MEMBER, True
    assert old_maps(g)._takeover_evidence(GID) == ("pending_prepare", MEMBER.value)
    assert evidence(g) == ("resolved_unknown", None)


def vars_of(g):
    return {name: getattr(g, name) for name in Group.__slots__}
