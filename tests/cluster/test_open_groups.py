"""The coordinator's open-group set: what the tick walks instead of every
group the site ever coordinated.

``Site.open_groups`` must equal, at all times, the gids whose
``coordinating`` entry is still ``collecting`` or ``releasing``.  The
fixture below asserts that after every message a site handles, every
tick and every restart, while existing sweeps drive the protocol through
drops, duplicates, delays, crashes and a takeover.
"""

import pytest

import repro.cluster.scenarios  # noqa: F401  (registers the scenarios)
from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get, probe, run_plan
from repro.cluster import Cluster
from repro.cluster.site import Site
from repro.cluster.sweep import message_faults, message_sweep, site_crashes
from tests.cluster.test_two_phase import spawn_group

OPEN_STATES = ("collecting", "releasing")


def derived_open_groups(site):
    return {
        gid
        for gid, entry in site.coordinating.items()
        if entry["state"] in OPEN_STATES
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
                assert self.open_groups == derived_open_groups(self), (
                    f"{self.name} after {name}"
                )

        monkeypatch.setattr(Site, name, stepped)

    for name in steps:
        wrap(name)
    return steps


def _all_closed(cluster):
    return all(not site.open_groups for site in cluster.sites.values())


def test_invariant_holds_through_a_message_fault_sweep(checked):
    spec = get("cluster_group_commit")
    result = message_sweep(
        spec, message_faults, ("drop", "duplicate", "delay"), limit=12
    )
    assert result.runs and result.ok, result.describe()
    assert checked["on_message"] and checked["on_tick"]
    for verdict in result.verdicts:
        assert _all_closed(verdict.system)
        assert any(site.coordinating for site in verdict.system.sites.values())


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
    installed = [
        entry
        for site in result.system.sites.values()
        if site.stats["takeovers_decided"]
        for entry in site.coordinating.values()
    ]
    assert installed and all(e["state"] != "collecting" for e in installed)
    assert _all_closed(result.system)


def test_restart_site_forgets_the_open_groups_it_was_collecting(checked):
    cluster = Cluster()
    refs = spawn_group(cluster)
    coordinator = cluster.sites["alpha"]
    cluster.fabric.partition([["alpha"], ["beta", "gamma"]])
    outcome = cluster.group_commit(refs, coordinator="alpha", timeout=4)
    assert not outcome.resolved
    assert len(coordinator.open_groups) == 1  # votes cannot arrive
    cluster.crash_site("alpha")
    cluster.restart_site("alpha")
    assert coordinator.open_groups == set() == derived_open_groups(coordinator)
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
    assert len(coordinator.coordinating) == groups
    assert len(coordinator.settled_gids) == groups
    assert {e["state"] for e in coordinator.coordinating.values()} == {"done"}
