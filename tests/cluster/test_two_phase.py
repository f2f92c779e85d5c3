"""Presumed-abort two-phase group commit across sites."""

from repro.cluster import Cluster
from repro.core.status import TransactionStatus
from repro.storage.log import CommitRecord, DecisionRecord


def _account(tag):
    def body(tx):
        oid = yield tx.create(tag + b"0")
        yield tx.write(oid, tag + b"1")
        return oid

    return body


def spawn_group(cluster, sites=None):
    sites = sites if sites is not None else sorted(cluster.sites)
    refs = [
        cluster.spawn_at(site, _account(site.encode())) for site in sites
    ]
    for ref in refs:
        cluster.wait(ref)
    return cluster.link_group(refs)


def committed_values(site):
    return [
        record.tid.value
        for record in site.durable_records()
        if isinstance(record, CommitRecord)
    ]


class TestHappyPath:
    def test_three_site_group_commit(self):
        cluster = Cluster()
        refs = spawn_group(cluster)
        outcome = cluster.group_commit(refs)
        assert outcome and outcome.resolved and outcome.committed
        cluster.converge()
        for ref in refs:
            assert ref.tid.value in committed_values(cluster.sites[ref.site])
        report, __ = cluster.evaluate(label="happy")
        assert report.ok

    def test_coordinator_logs_decision_before_release(self):
        cluster = Cluster()
        refs = spawn_group(cluster)
        outcome = cluster.group_commit(refs, coordinator="beta")
        assert outcome
        decisions = [
            record
            for record in cluster.sites["beta"].durable_records()
            if isinstance(record, DecisionRecord)
        ]
        assert len(decisions) == 1
        assert decisions[0].verdict == "commit"
        assert decisions[0].gid == outcome.gid
        # The first ACK seals the commit: the record names the members
        # not yet acknowledged then, the only ones a restart re-notifies.
        first_ack = next(
            src for __, src, dst, kind, action in cluster.fabric.delivery_log
            if (dst, kind, action) == ("beta", "ack", "deliver")
        )
        assert decisions[0].participants == tuple(
            sorted({"alpha", "gamma"} - {first_ack})
        )

    def test_message_count_is_bounded(self):
        # 3 sites: the full exchange (console RPCs included) stays small
        # and, critically, deterministic — the bound doubles as a
        # regression tripwire for protocol chattiness.
        cluster = Cluster()
        refs = spawn_group(cluster)
        before = cluster.fabric.stats["sent"]
        assert cluster.group_commit(refs)
        cluster.converge()
        exchanged = cluster.fabric.stats["sent"] - before
        assert exchanged <= 16

    def test_group_commit_is_idempotent_under_duplicate_decision(self):
        cluster = Cluster()
        refs = spawn_group(cluster)
        outcome = cluster.group_commit(refs)
        assert outcome
        coordinator = cluster.sites[refs[0].site]
        # Replay the decision to every participant by hand.
        members = coordinator._group(outcome.gid).members  # was coordinating[gid]
        for site in sorted(members):
            if site != coordinator.name:
                coordinator._send(
                    site,
                    "decision",
                    {
                        "gid": outcome.gid,
                        "verdict": "commit",
                        "tid": members[site],
                    },
                )
        cluster.converge()
        report, __ = cluster.evaluate(label="duplicate decision")
        assert report.ok
        for ref in refs:
            assert committed_values(cluster.sites[ref.site]).count(
                ref.tid.value
            ) == 1

    def test_representative_validation(self):
        cluster = Cluster(sites=("alpha", "beta"))
        a1 = cluster.spawn_at("alpha", _account(b"x"))
        a2 = cluster.spawn_at("alpha", _account(b"y"))
        try:
            cluster.group_commit([a1, a2])
            raise AssertionError("two representatives on one site accepted")
        except ValueError:
            pass

    def test_memberless_coordinator_degrades_to_abort(self):
        # A coordinator hosting no member is a configuration the caller
        # can reach mid-churn (the intended host just left); it must not
        # blow up the console — the group degrades to a recorded abort.
        cluster = Cluster(sites=("alpha", "beta"))
        a1 = cluster.spawn_at("alpha", _account(b"x"))
        outcome = cluster.group_commit([a1], coordinator="beta")
        assert not outcome.committed
        assert outcome.resolved
        assert "beta" in outcome.abort_reason
        cluster.converge()
        assert a1.tid.value not in committed_values(cluster.sites["alpha"])
        report, __ = cluster.evaluate(label="memberless coordinator")
        assert report.ok


class TestAbortPaths:
    def test_aborted_member_vetoes_the_group(self):
        cluster = Cluster()
        refs = spawn_group(cluster)
        cluster.abort(refs[1], reason="veto")
        cluster.settle(4)
        outcome = cluster.group_commit(refs)
        assert not outcome.committed and outcome.resolved
        cluster.converge()
        for ref in refs:
            assert ref.tid.value not in committed_values(
                cluster.sites[ref.site]
            )
        report, __ = cluster.evaluate(label="veto")
        assert report.ok

    def test_abort_decision_is_never_logged(self):
        cluster = Cluster()
        refs = spawn_group(cluster)
        cluster.abort(refs[0], reason="veto")
        cluster.settle(4)
        cluster.group_commit(refs)
        cluster.converge()
        for site in cluster.sites.values():
            assert not any(
                isinstance(record, DecisionRecord)
                for record in site.durable_records()
            )


class TestCrashRecovery:
    def test_participant_crash_after_vote_resolves_commit(self):
        cluster = Cluster()
        refs = spawn_group(cluster)
        outcome = cluster.group_commit(refs)
        assert outcome
        victim = refs[1].site
        cluster.crash_site(victim)
        cluster.restart_site(victim)
        assert cluster.converge()
        report, __ = cluster.evaluate(label="participant restart")
        assert report.ok
        assert refs[1].tid.value in committed_values(cluster.sites[victim])

    def test_coordinator_crash_before_decision_presumes_abort(self):
        # Crash the coordinator the instant it is asked to run the
        # group: participants may prepare and go in doubt, but with no
        # durable decision anywhere the presumption must settle every
        # member as aborted.
        cluster = Cluster()
        refs = spawn_group(cluster)
        coordinator = refs[0].site
        cluster.crash_site(coordinator)
        outcome = cluster.group_commit(refs)
        assert not outcome.resolved  # console never heard a verdict
        cluster.restart_site(coordinator)
        assert cluster.converge()
        report, __ = cluster.evaluate(label="coordinator crash")
        assert report.ok
        for ref in refs:
            assert ref.tid.value not in committed_values(
                cluster.sites[ref.site]
            )

    def test_coordinator_crash_after_decision_resolves_commit(self):
        # Witness-confirmed release: the decision reaches disk only
        # once one participant acknowledged it.  Let beta's ack seal
        # the commit while gamma never hears the release; then kill
        # the coordinator.  Restart re-reads the DecisionRecord and
        # the still-prepared participant learns "commit" from the
        # reborn coordinator's re-announce (or its own inquiry).
        cluster = Cluster()
        refs = spawn_group(cluster)
        coordinator = cluster.sites["alpha"]

        original = coordinator._send

        def send_muting_gamma_decisions(dst, kind, payload, reply_to=None):
            if kind == "decision" and dst == "gamma":
                return None
            return original(dst, kind, payload, reply_to=reply_to)

        coordinator._send = send_muting_gamma_decisions
        outcome = cluster.group_commit(refs, timeout=8)
        assert outcome  # beta witnessed, so the commit sealed
        # (was ``gamma.prepared``) still awaiting release
        assert cluster.sites["gamma"]._group(outcome.gid).phase == "prepared"
        decisions = [
            record
            for record in coordinator.durable_records()
            if isinstance(record, DecisionRecord)
        ]
        assert [record.verdict for record in decisions] == ["commit"]
        coordinator._send = original
        cluster.crash_site("alpha")
        cluster.restart_site("alpha")
        assert cluster.converge()
        report, __ = cluster.evaluate(label="decided then crashed")
        assert report.ok
        for ref in refs:
            assert ref.tid.value in committed_values(cluster.sites[ref.site])

    def test_a_decision_owed_an_ack_survives_a_truncating_checkpoint(self):
        # As above, but the coordinator takes a sharp checkpoint before
        # the crash: the log it restarts from is the checkpoint's base
        # images and marker, whose summary still holds the decision that
        # gamma has not acknowledged.  Judged on site state: the
        # cluster oracles read the durable logs, and a truncated one
        # no longer shows the decision (see docs/internals.md).
        cluster = Cluster()
        refs = spawn_group(cluster)
        coordinator = cluster.sites["alpha"]
        original = coordinator._send

        def send_muting_gamma_decisions(dst, kind, payload, reply_to=None):
            if kind == "decision" and dst == "gamma":
                return None
            return original(dst, kind, payload, reply_to=reply_to)

        coordinator._send = send_muting_gamma_decisions
        outcome = cluster.group_commit(refs, timeout=8)
        assert outcome
        coordinator._send = original
        coordinator.manager.checkpoint(truncate=True)
        assert not any(
            isinstance(record, DecisionRecord)
            for record in coordinator.durable_records()
        )
        cluster.crash_site("alpha")
        sent = []
        coordinator._send = lambda dst, kind, payload, reply_to=None: (
            sent.append((dst, kind)) or original(dst, kind, payload, reply_to)
        )
        cluster.restart_site("alpha")
        assert coordinator.settled_gids == {outcome.gid: "commit"}
        assert ("gamma", "decision") in sent
        assert cluster.converge()
        gamma = cluster.sites["gamma"]
        assert gamma.settled_gids == {outcome.gid: "commit"}
        assert refs[2].tid.value in committed_values(gamma)

    def test_commit_is_not_logged_until_a_witness_acks(self):
        # Mute *every* DECISION: the coordinator must park in the
        # releasing state — no DecisionRecord, no client verdict, no
        # locally committed member — because a logged commit with no
        # witness is the one state takeover cannot re-derive.  Unmuting
        # lets a heartbeat-paced resend through; the first ack seals.
        cluster = Cluster()
        refs = spawn_group(cluster)
        coordinator = cluster.sites["alpha"]

        original = coordinator._send

        def send_muting_decisions(dst, kind, payload, reply_to=None):
            if kind == "decision":
                return None
            return original(dst, kind, payload, reply_to=reply_to)

        coordinator._send = send_muting_decisions
        outcome = cluster.group_commit(refs, timeout=8)
        assert not outcome.resolved  # console heard nothing
        assert not any(
            isinstance(record, DecisionRecord)
            for record in coordinator.durable_records()
        )
        # (was ``coordinating[gid]["state"]``)
        assert coordinator._group(outcome.gid).state == "releasing"
        assert committed_values(coordinator) == []
        coordinator._send = original
        assert cluster.converge()
        report, __ = cluster.evaluate(label="blackout then heal")
        assert report.ok
        for ref in refs:
            assert ref.tid.value in committed_values(cluster.sites[ref.site])

    def test_prepared_participant_survives_own_crash_in_doubt(self):
        # Participant force-logs its vote, crashes, restarts: recovery
        # reports the group in doubt and the inquiry loop resolves it
        # from the coordinator's durable state.
        cluster = Cluster(sites=("alpha", "beta"))
        refs = spawn_group(cluster)
        outcome = cluster.group_commit(refs)
        assert outcome
        cluster.crash_site("beta")
        report = cluster.restart_site("beta")
        # (The decision may already have landed before the crash; only
        # assert the machinery converges to the committed truth.)
        assert cluster.converge()
        verdict, __ = cluster.evaluate(label="participant in doubt")
        assert verdict.ok
        assert refs[1].tid.value in committed_values(cluster.sites["beta"])
        assert report is not None
