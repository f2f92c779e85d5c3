"""The has-work index: what the tick walks instead of every group the
site ever heard of.

``Site.active`` must equal, at all times, the gids whose record has a
pending vote, an open coordinator state (``collecting`` / ``releasing``),
a prepared or in-doubt member with no verdict, or a live takeover.  The
fixture below asserts that after every message a site handles, every
tick and every restart, while existing sweeps drive the protocol through
drops, duplicates, delays, crashes and a takeover.

This is the invariant ``open_groups == {gid : coordinating[gid] is
collecting or releasing}`` used to state, widened to the four other maps
the tick walked (``pending_prepares``, ``prepared``, ``in_doubt``,
``taking_over``) now that all five are one index over one ledger.
"""

import pytest

import repro.chaos.cluster_scenarios  # noqa: F401  (registers the scenarios)
from repro.chaos.cluster_sweep import (
    message_faults,
    message_sweep,
    site_crashes,
)
from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get, probe, run_plan
from repro.cluster import Cluster
from repro.cluster.site import Site
from tests.cluster.test_evidence_oracle import broken
from tests.cluster.test_two_phase import spawn_group

OPEN_STATES = ("collecting", "releasing")


def derived_open_groups(site):
    """The coordinator part (was: over ``coordinating``)."""
    return {gid for gid, g in site.groups.items() if g.state in OPEN_STATES}


def derived_active(site):
    """Spelled out from the fields, independently of ``Site._move``."""
    return derived_open_groups(site) | {
        gid
        for gid, g in site.groups.items()
        if g.phase in ("pending", "prepared", "in_doubt")
        or g.takeover is not None
    }


@pytest.fixture
def checked(monkeypatch):
    """Assert the invariant after every protocol step of every site."""
    steps = {"on_message": 0, "on_tick": 0, "restart": 0}

    def wrap(name):
        original = getattr(Site, name)

        def stepped(self, *args, **kwargs):
            try:
                return original(self, *args, **kwargs)
            finally:
                steps[name] += 1
                assert self.active == derived_active(self), (
                    f"{self.name} after {name}"
                )
                # ... and, while the site lives, every record at rest is
                # one the evidence oracle calls representable.
                unrepresentable = {
                    gid: broken(g) for gid, g in self.groups.items() if broken(g)
                }
                assert not (self.up and unrepresentable), (
                    f"{self.name} after {name}: {unrepresentable}"
                )

        monkeypatch.setattr(Site, name, stepped)

    for name in steps:
        wrap(name)
    return steps


def _all_closed(cluster):
    # was: ``not site.open_groups``
    return all(
        not site.active and not derived_open_groups(site)
        for site in cluster.sites.values()
    )


def test_invariant_holds_through_a_message_fault_sweep(checked):
    spec = get("cluster_group_commit")
    result = message_sweep(
        spec, message_faults, ("drop", "duplicate", "delay"), limit=12
    )
    assert result.runs and result.ok, result.describe()
    assert checked["on_message"] and checked["on_tick"]
    for verdict in result.verdicts:
        assert _all_closed(verdict.system)
        # was: ``any(site.coordinating ...)`` — some site did coordinate
        assert any(
            g.state is not None
            for site in verdict.system.sites.values()
            for g in site.groups.values()
        )


def test_invariant_holds_through_crash_and_restart(checked):
    spec = get("cluster_group_commit")
    result = message_sweep(spec, site_crashes, spec.sites, limit=12)
    assert result.runs and result.ok, result.describe()
    assert checked["restart"]
    assert all(_all_closed(verdict.system) for verdict in result.verdicts)


def test_invariant_holds_through_a_takeover(checked):
    # The usurper installs a ``decided`` entry directly: it must never
    # show up as open.
    spec = get("cluster_group_commit")
    steps = probe(spec).messages
    vote = next(n for n, detail in steps if detail.endswith(":vote"))
    result = run_plan(spec, FaultPlan(kill_coordinator_at=vote))
    assert result.judgment == "failover"
    assert result.ok, result.describe()
    installed = [  # was: the takers' ``coordinating`` entries
        g
        for site in result.system.sites.values()
        if site.stats["takeovers_decided"]
        for g in site.groups.values()
        if g.state is not None
    ]
    assert installed and all(g.state != "collecting" for g in installed)
    assert _all_closed(result.system)


def test_restart_site_forgets_the_open_groups_it_was_collecting(checked):
    cluster = Cluster()
    refs = spawn_group(cluster)
    coordinator = cluster.sites["alpha"]
    cluster.fabric.partition([["alpha"], ["beta", "gamma"]])
    outcome = cluster.group_commit(refs, coordinator="alpha", timeout=4)
    assert not outcome.resolved
    # was: ``len(open_groups) == 1`` — votes cannot arrive
    assert len(derived_open_groups(coordinator)) == 1
    assert derived_open_groups(coordinator) <= coordinator.active
    cluster.crash_site("alpha")
    cluster.restart_site("alpha")
    assert derived_open_groups(coordinator) == set()
    assert coordinator.active == derived_active(coordinator)
    cluster.heal()
    assert cluster.converge()
    assert _all_closed(cluster)


def test_settled_groups_stay_as_evidence_but_leave_the_tick(checked):
    cluster = Cluster()
    groups = 12
    for __ in range(groups):
        refs = spawn_group(cluster)
        assert cluster.group_commit(refs, coordinator="beta").committed
    assert cluster.converge()
    coordinator = cluster.sites["beta"]
    assert _all_closed(cluster)
    assert not coordinator.unsettled()
    # Protocol evidence is not pruned: every group is still on record.
    # was: ``len(coordinating)``, ``len(settled_gids)``, entry states
    assert len(coordinator.groups) == groups
    assert len(coordinator.settled_gids) == groups
    assert {g.state for g in coordinator.groups.values()} == {"done"}
