"""Coordinator failover: leases, fencing epochs, in-doubt takeover.

Unit-level companions to the ``coordinator_death_sweep`` /
``takeover_death_sweep`` acceptance runs in ``test_sweeps.py``: pinned
kill points with named expectations, rather than every step with the
generic oracles.
"""

import repro.chaos.cluster_scenarios  # noqa: F401  (registers the scenarios)
from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get, probe, run_plan
from repro.cluster import Cluster
from repro.cluster.group import Takeover, evidence
from repro.storage.log import CommitRecord, DecisionRecord, TakeoverRecord


def _account(tag):
    def body(tx):
        oid = yield tx.create(tag + b"0")
        yield tx.write(oid, tag + b"1")
        return oid

    return body


def _spawn_group(cluster):
    refs = [
        cluster.spawn_at(site, _account(site.encode()))
        for site in sorted(cluster.sites)
    ]
    for ref in refs:
        cluster.wait(ref)
    return cluster.link_group(refs)


def _step(steps, kind, index=0):
    """The ``index``-th message step whose detail ends with ``:kind``."""
    matches = [n for n, d in steps if d.endswith(f":{kind}")]
    return matches[index]


def _takeover_records(cluster):
    return [
        record
        for site in cluster.sites.values()
        for record in site.durable_records()
        if isinstance(record, TakeoverRecord)
    ]


def _merged_verdicts(analyses):
    """gid -> set of verdicts across every site's durable log."""
    merged = {}
    for analysis in analyses.values():
        for gid, verdicts in analysis.group_verdicts.items():
            merged.setdefault(gid, set()).update(verdicts)
    return merged


class TestTakeover:
    def test_death_before_decision_presumes_abort(self):
        # Kill the coordinator the moment the first vote is sent: the
        # participants are prepared, no decision exists anywhere, and
        # the coordinator never answers another inquiry.  The survivors'
        # lease-paced takeover must re-derive presumed abort and settle
        # every live member without the operator's help.
        spec = get("cluster_group_commit")
        steps = probe(spec).messages
        plan = FaultPlan(kill_coordinator_at=_step(steps, "vote"))
        result = run_plan(spec, plan)
        assert result.judgment == "failover"
        assert result.ok, result.describe()
        takeovers = _takeover_records(result.system)
        assert takeovers, "a takeover claim must be force-logged"
        assert {t.verdict for t in takeovers} == {"abort"}
        assert all(t.epoch >= 1 for t in takeovers)
        # Every claim names the same fenced-out old coordinator, and
        # the collected evidence is snapshotted for audit.
        assert len({t.old_coordinator for t in takeovers}) == 1
        assert all(t.votes for t in takeovers)
        assert {"abort"} in _merged_verdicts(result.analyses).values()

    def test_death_after_decision_preserves_commit(self):
        # Kill the coordinator at the first participant ack: by then the
        # commit decision is durable and released.  A permanently dead
        # coordinator must not undo it — the group stays committed with
        # a single verdict across every log.
        spec = get("cluster_group_commit")
        steps = probe(spec).messages
        plan = FaultPlan(kill_coordinator_at=_step(steps, "ack"))
        result = run_plan(spec, plan)
        assert result.judgment == "failover"
        assert result.ok, result.describe()
        verdicts = _merged_verdicts(result.analyses)
        assert {"commit"} in verdicts.values()
        assert {"abort", "commit"} not in verdicts.values()

    def test_partial_release_takeover_derives_commit(self):
        # Kill the coordinator at the *second* decision send: at least
        # one participant holds the commit verdict, another may still be
        # prepared.  Whatever takeover runs must find the durable
        # "committed" evidence and conclude commit — never presume abort
        # over a witness.
        spec = get("cluster_group_commit")
        steps = probe(spec).messages
        plan = FaultPlan(kill_coordinator_at=_step(steps, "decision", 1))
        result = run_plan(spec, plan)
        assert result.judgment == "failover"
        assert result.ok, result.describe()
        for gid, verdicts in _merged_verdicts(result.analyses).items():
            assert len(verdicts) == 1, f"gid {gid} split: {verdicts}"
        takeovers = _takeover_records(result.system)
        assert all(t.verdict == "commit" for t in takeovers)
        commits = [
            record.tid.value
            for site in result.system.sites.values()
            for record in site.durable_records()
            if isinstance(record, CommitRecord)
        ]
        assert commits, "the released commit must survive the death"

    def test_reborn_coordinator_is_fenced_not_split(self):
        # The old coordinator restarts after a takeover settled the
        # group.  Its log and the survivors' logs must agree on a single
        # verdict per gid (the no-dual-decision oracle), and the usurper
        # epoch must outrank the original epoch 0.
        spec = get("cluster_group_commit")
        steps = probe(spec).messages
        plan = FaultPlan(kill_coordinator_at=_step(steps, "vote", 1))
        result = run_plan(spec, plan)
        assert result.judgment == "failover"
        assert result.ok, result.describe()
        takeovers = _takeover_records(result.system)
        assert takeovers
        old = takeovers[0].old_coordinator
        reborn = result.system.sites[old]
        assert reborn.up
        merged = _merged_verdicts(result.analyses)
        for gid, verdicts in merged.items():
            assert len(verdicts) == 1
        # The reborn site carries no conflicting decision of its own.
        for record in reborn.durable_records():
            if isinstance(record, DecisionRecord):
                assert {record.verdict} <= merged.get(
                    record.gid, {record.verdict}
                )


class TestWitnessReconstruction:
    def test_restarted_commit_witness_still_testifies(self):
        # A participant applies the commit, then power-cycles.  Its
        # settled map is volatile; only the log survives — and the log
        # holds a PrepareRecord whose tids are recovery winners.  The
        # restart must reconstruct "this group committed", or a taker
        # polling it would read silence as presumed abort and split the
        # group against this site's durable commit.
        cluster = Cluster()
        refs = _spawn_group(cluster)
        outcome = cluster.group_commit(refs)
        assert outcome and outcome.committed
        cluster.converge()
        cluster.crash_site("beta")
        cluster.restart_site("beta")
        beta = cluster.sites["beta"]
        assert beta.settled_gids.get(outcome.gid) == "commit"
        assert evidence(beta._group(outcome.gid)) == ("committed", None)

    def test_a_witness_whose_commit_lies_below_its_restart_point(self):
        # The same witness, checkpointed after it applied the commit:
        # its vote and its commit record both lie below the restart
        # point, and the tail it restarts from commits nothing.  Judged
        # against the tail's winners alone, the vote read as aborted —
        # and a taker polling it presumed abort over a committed group.
        cluster = Cluster()
        refs = _spawn_group(cluster)
        outcome = cluster.group_commit(refs)
        assert outcome and outcome.committed
        cluster.converge()
        beta = cluster.sites["beta"]
        beta.storage.checkpoint()
        assert beta.storage.log.base > 0
        cluster.crash_site("beta")
        report = cluster.restart_site("beta")
        assert not report.winners
        assert beta.settled_gids.get(outcome.gid) == "commit"
        assert evidence(beta._group(outcome.gid)) == ("committed", None)

    def test_restarted_abort_participant_still_testifies(self):
        # Same reconstruction, abort side: a participant that voted
        # commit and then resolved abort (its coordinator died before
        # deciding; the takeover presumed abort) must, after its own
        # power-cycle, still answer "aborted" — not "no trace".
        spec = get("cluster_group_commit")
        steps = probe(spec).messages
        plan = FaultPlan(kill_coordinator_at=_step(steps, "vote"))
        result = run_plan(spec, plan)
        assert result.judgment == "failover"
        assert result.ok, result.describe()
        cluster = result.system
        old = _takeover_records(cluster)[0].old_coordinator
        witness = next(
            name
            for name, site in sorted(cluster.sites.items())
            if name != old and site.voted_gids
        )
        site = cluster.sites[witness]
        (gid,) = site.voted_gids
        assert site.settled_gids.get(gid) == "abort"
        cluster.crash_site(witness)
        cluster.restart_site(witness)
        site = cluster.sites[witness]
        assert site.settled_gids.get(gid) == "abort"
        assert evidence(site._group(gid)) == ("aborted", None)


class TestEvidenceStates:
    def test_never_prepared_vs_resolved_unknown(self):
        cluster = Cluster()
        site = cluster.sites["alpha"]
        assert evidence(site._group(99)) == ("never_prepared", None)
        # A voted gid whose record holds no resolution (was: in
        # ``voted_gids`` and no other map) must never read as "no trace"
        # — that is the one unsafe guess a taker could make.
        site._group(99).voted = True
        assert evidence(site._group(99)) == ("resolved_unknown", None)

    def _taking_over_entry(self, site, gid, answers):
        # (was a literal ``taking_over[gid]`` entry)
        group = site._group(gid)
        taker = Takeover(1, "beta", ("alpha", "beta", "gamma"))
        taker.evidence.update(answers)
        site._move(group, "takeover", taker)
        return group

    def test_abort_is_presumed_over_never_prepared(self):
        cluster = Cluster()
        site = cluster.sites["alpha"]
        group = self._taking_over_entry(site, 7, {"gamma": "never_prepared"})
        site._maybe_conclude_takeover(group)
        assert group.takeover is None and 7 not in site.active
        decisions = [
            record
            for record in site.durable_records()
            if isinstance(record, DecisionRecord)
        ]
        assert [record.verdict for record in decisions] == ["abort"]

    def test_resolved_unknown_blocks_the_conclusion(self):
        cluster = Cluster()
        site = cluster.sites["alpha"]
        group = self._taking_over_entry(site, 7, {"gamma": "resolved_unknown"})
        site._maybe_conclude_takeover(group)
        # blocked: never guess a verdict
        assert group.takeover is not None and 7 in site.active
        assert not any(
            isinstance(record, DecisionRecord)
            for record in site.durable_records()
        )


class TestReleaseBlackout:
    def test_blackout_with_permanent_death_presumes_abort(self):
        # Every DECISION vanishes (fan-out and resends) and the
        # coordinator dies at its first release attempt.  With the
        # commit gated on a witness ACK, no commit record exists
        # anywhere, so the survivors' presumed-abort takeover and the
        # reborn coordinator's log agree: abort, everywhere.
        spec = get("cluster_group_commit")
        blackout = FaultPlan(drop_msg_kinds=frozenset({"decision"}))
        steps = probe(spec, blackout).messages
        kill = next(n for n, d in steps if d.endswith(":decision"))
        result = run_plan(spec, blackout.with_(kill_coordinator_at=kill))
        assert result.judgment == "failover"
        assert result.ok, result.describe()
        verdicts = _merged_verdicts(result.analyses)
        assert verdicts
        for gid, seen in verdicts.items():
            assert seen == {"abort"}, f"gid {gid} split: {seen}"

    def test_blackout_without_death_heals_to_commit(self):
        # Liveness side of the same gate: while the blackout holds the
        # coordinator parks in "releasing"; once the fabric heals, a
        # heartbeat-paced resend gets through, a witness acks, and the
        # commit seals — the gate defers the decision, never loses it.
        spec = get("cluster_group_commit")
        plan = FaultPlan(drop_msg_kinds=frozenset({"decision"}))
        result = run_plan(spec, plan)
        assert result.judgment == "cluster"
        assert result.ok, result.describe()
        verdicts = _merged_verdicts(result.analyses)
        assert {"commit"} in verdicts.values()


class TestFencing:
    def test_lower_epochs_are_rejected_and_counted(self):
        cluster = Cluster()
        site = cluster.sites["alpha"]
        seven = site._group(7)
        assert site._fence(seven, 0) is True  # epoch 0 is the default
        assert site._fence(seven, 2) is True  # higher: adopted on the spot
        assert site._group(7).epoch == 2  # was group_epochs[7]
        before = site.stats["stale_epoch_rejects"]
        assert site._fence(seven, 1) is False  # stale: fenced out
        assert site.stats["stale_epoch_rejects"] == before + 1
        assert site._group(7).epoch == 2  # rejection never regresses

    def test_equal_epochs_pass(self):
        # Same-epoch duplicates are legal: dueling takers at one epoch
        # derive the same verdict from the same durable evidence.
        cluster = Cluster()
        site = cluster.sites["alpha"]
        site._fence(site._group(7), 3)
        assert site._fence(site._group(7), 3) is True
        assert site._group(7).epoch == 3

    def test_epochs_are_per_group(self):
        cluster = Cluster()
        site = cluster.sites["alpha"]
        site._fence(site._group(7), 5)
        assert site._fence(site._group(8), 1) is True  # other gid: independent fence
        assert {g.gid: g.epoch for g in site.ledger()} == {7: 5, 8: 1}
