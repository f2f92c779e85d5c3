"""The restarted ledger is the durable projection of the live one.

``Site.restart`` folds the log (plus the recovery report) back into
group records.  Whatever the live ledger knew that had reached the log —
a verdict, that a vote was cast, that a commit decision was logged, the
epoch of a takeover claim, which members still wait for a verdict — the
fold must find again, no more and no less: a restarted witness that
remembers less answers a takeover poll wrongly (the PR 9 review's
"restarted witness answers no trace").

The check is destructive (it power-cycles every live site), so each
point of a run is checked on a run of its own: the healthy, wedge
(coordinator killed at the first vote, survivors take over) and blackout
(every DECISION dropped) probes are driven once to count their ticks and
then once more per tick, stopping there — every quiescent point is
among them, and so is the completed takeover.
"""

import pytest

import repro.chaos.cluster_scenarios  # noqa: F401  (registers the scenarios)
from repro.chaos.cluster_sweep import stranded_witness_sweep
from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get, probe
from repro.cluster import Cluster
from repro.cluster.group import WAITING
from tests.chaos.mutations import restart_forgets_resolved_votes

SPEC = get("cluster_group_commit")
FIRST_VOTE = next(n for n, d in probe(SPEC).messages if d.endswith(":vote"))
PROBES = {
    "healthy": FaultPlan(),
    "wedge": FaultPlan(kill_coordinator_at=FIRST_VOTE),
    "blackout": FaultPlan(drop_msg_kinds=frozenset({"decision"})),
}


def durable_projection(site):
    """gid -> (verdict, voted, commit_logged, claim epoch, awaiting a
    verdict), of the groups something about which reached this site's
    log (a restart leaves the others blank; blank and absent are the
    same evidence)."""
    return {
        gid: (
            g.verdict,
            g.voted,
            g.commit_logged,
            g.claim.epoch if g.claim is not None else 0,
            g.phase in WAITING,
        )
        for gid, g in site.groups.items()
        if g.voted or g.commit_logged or g.claim is not None
    }


class _Reached(BaseException):
    """Ends a run at the tick under test (not an ``AssetError``: the
    scenario's driver must not swallow it)."""


def _drive(plan, monkeypatch, stop_at=None):
    """Probe ``SPEC`` under ``plan``; returns how many ticks it took.
    With ``stop_at``, power-cycle every live site after that tick,
    compare, and end the run."""
    ticks = [0]
    tick = Cluster.tick

    def watched(cluster):
        tick(cluster)
        ticks[0] += 1
        if ticks[0] == stop_at:
            for name, site in cluster.sites.items():
                if not site.up:
                    continue
                before = durable_projection(site)
                cluster.crash_site(name)
                cluster.restart_site(name)
                assert durable_projection(site) == before, f"{name} at tick {stop_at}"
                blank = [g for g in site.groups.values() if not g.voted]
                assert all(
                    g.phase is g.verdict is g.state is g.takeover is None
                    for g in blank
                    if not g.commit_logged and g.claim is None
                )
            raise _Reached

    monkeypatch.setattr(Cluster, "tick", watched)
    try:
        probe(SPEC, plan)
    except _Reached:
        pass
    finally:
        monkeypatch.setattr(Cluster, "tick", tick)
    return ticks[0]


@pytest.mark.parametrize("label", sorted(PROBES))
def test_restart_finds_what_the_live_ledger_had_logged(label, monkeypatch):
    ticks = _drive(PROBES[label], monkeypatch)
    assert ticks > 20
    for tick in range(1, ticks + 1):
        _drive(PROBES[label], monkeypatch, stop_at=tick)


def test_the_wedge_probe_ends_in_a_completed_takeover():
    trace = probe(SPEC, PROBES["wedge"])
    takers = [
        site for site in trace.system.sites.values()
        if site.stats["takeovers_decided"]
    ]
    assert takers and all(
        g.claim is not None and g.verdict is not None
        for site in takers
        for g in site.groups.values()
    )


class TestRestartForgetsResolvedVotes:
    """The mutation: ``Site._resolved_verdict`` derives nothing."""

    def test_red_on_the_projection(self, monkeypatch):
        ticks = _drive(PROBES["healthy"], monkeypatch)
        with restart_forgets_resolved_votes():
            with pytest.raises(AssertionError, match="at tick"):
                for tick in range(1, ticks + 1):
                    _drive(PROBES["healthy"], monkeypatch, stop_at=tick)

    def test_red_on_the_stranded_witness_sweep(self):
        assert stranded_witness_sweep(SPEC).ok
        with restart_forgets_resolved_votes():
            result = stranded_witness_sweep(SPEC)
        # The failing plans are exactly the power cuts of the witness
        # (beta) that land before the stranded member's poll is answered.
        assert (result.runs, len(result.failures)) == (45, 8)
        assert all("crash beta" in failure.detail for failure in result.failures)
        assert all(
            "takeover-liveness" in violation
            for failure in result.failures
            for violation in failure.violations
        )

    def test_the_mutation_restores_the_fold(self):
        from repro.cluster.site import Site

        original = Site._resolved_verdict
        with restart_forgets_resolved_votes():
            assert Site._resolved_verdict is not original
        assert Site._resolved_verdict is original
