"""Membership churn: site join/leave, epoch-fenced routing, handoff.

Direct tests for the membership console — the sweep-level coverage
(churn landing at every message step) lives in ``test_sweeps.py``.
"""

import pytest

from repro.cluster import Cluster


def _account(tag):
    def body(tx):
        oid = yield tx.create(tag + b"0")
        yield tx.write(oid, tag + b"1")
        return oid

    return body


def _key_routed_to(cluster, site):
    for i in range(64):
        key = f"k{i}"
        if cluster.route(key) == site:
            return key
    raise AssertionError(f"no probe key routed to {site}")


class TestJoin:
    def test_join_bumps_epoch_and_rebalances(self):
        cluster = Cluster()
        before = cluster.membership_epoch
        cluster.join_site("delta")
        assert cluster.membership_epoch == before + 1
        assert "delta" in cluster.membership
        assert cluster.sites["delta"].membership_epoch == cluster.membership_epoch
        # The balanced placement spreads shards over the new membership;
        # the joiner owns real ranges immediately.
        assert set(cluster.placement.values()) <= cluster.membership
        assert "delta" in set(cluster.placement.values())

    def test_joiner_serves_placed_spawns(self):
        cluster = Cluster()
        cluster.join_site("delta")
        key = _key_routed_to(cluster, "delta")
        ref = cluster.spawn_placed(key, _account(b"d"))
        assert ref is not None and ref.site == "delta"
        cluster.wait(ref)

    def test_duplicate_join_is_rejected(self):
        cluster = Cluster()
        with pytest.raises(ValueError):
            cluster.join_site("alpha")


class TestStaleRoutes:
    def test_stale_epoch_is_rejected_then_adopted(self):
        # A console that routed under a superseded epoch must be told
        # so — the site rejects, reports its newer epoch, and the
        # console's retry loop adopts it and re-resolves.
        cluster = Cluster()
        cluster.join_site("delta")
        current = cluster.membership_epoch
        cluster.membership_epoch = current - 1  # simulate a stale console
        key = _key_routed_to(cluster, "alpha")
        before = cluster.sites["alpha"].stats["stale_route_rejects"]
        ref = cluster.spawn_placed(key, _account(b"s"))
        assert ref is not None
        assert cluster.membership_epoch == current  # adopted from the reject
        assert cluster.sites["alpha"].stats["stale_route_rejects"] == before + 1

    def test_left_site_rejects_new_placements(self):
        cluster = Cluster()
        cluster.leave_site("beta", "gamma")
        assert cluster.sites["beta"].left
        # Every shard beta owned now routes to the successor.
        assert "beta" not in set(cluster.placement.values())
        for i in range(16):
            assert cluster.route(f"k{i}") != "beta"


class TestLeave:
    def test_leave_hands_in_flight_transactions_over(self):
        # beta's placement keys (the crc32-deterministic acct-2/acct-3)
        # hold in-flight transactions when beta leaves: the handoff must
        # delegate each to an adopted receiver at the successor and
        # report the move.
        cluster = Cluster()
        refs = [
            cluster.spawn_placed(key, _account(key.encode()))
            for key in ("acct-2", "acct-3")
        ]
        assert all(ref.site == "beta" for ref in refs)
        for ref in refs:
            cluster.wait(ref)
        before = cluster.membership_epoch
        result = cluster.leave_site("beta", "gamma")
        assert result["ok"] is True
        assert result["moved"] == 2
        assert set(result["adopted"]) == {ref.tid.value for ref in refs}
        assert cluster.membership_epoch == before + 1
        assert "beta" not in cluster.membership
        assert cluster.route("acct-2") == "gamma"
        assert cluster.sites["beta"].stats["handoff_txs_moved"] == 2
        # The adopted receivers are live at the successor.
        gamma = cluster.sites["gamma"]
        for receiver_value in result["adopted"].values():
            assert any(
                td.tid.value == receiver_value for td in gamma.manager.table
            )

    def test_leave_with_nothing_in_flight_is_trivial(self):
        cluster = Cluster()
        result = cluster.leave_site("beta", "alpha")
        assert result == {"ok": True, "moved": 0, "adopted": {}}
        assert cluster.sites["beta"].left

    def test_leave_validation(self):
        cluster = Cluster()
        with pytest.raises(ValueError):
            cluster.leave_site("nobody", "alpha")
        with pytest.raises(ValueError):
            cluster.leave_site("beta", "beta")
        with pytest.raises(ValueError):
            cluster.leave_site("beta", "nobody")

    def test_planned_leave_with_absent_successor_is_skipped(self):
        # A churn plan naming a successor that is not (yet) a member —
        # a typo, or a join that fires at a later step — must be
        # skipped at the tick boundary, not explode out of the tick
        # loop as a ValueError and abort the whole faulted run.
        cluster = Cluster()
        cluster.pending_churn.append(("leave", ("beta", "nobody")))
        cluster.pending_churn.append(("leave", ("beta", "beta")))
        cluster.tick()
        assert "beta" in cluster.membership
        assert not cluster.sites["beta"].left

    def test_group_commit_across_churned_membership(self):
        # After a join and a leave, one member per surviving site still
        # group-commits atomically and the oracles hold.
        cluster = Cluster()
        cluster.join_site("delta")
        cluster.leave_site("beta", "delta")
        refs = [
            cluster.spawn_at(name, _account(name.encode()))
            for name in sorted(cluster.membership)
        ]
        for ref in refs:
            cluster.wait(ref)
        cluster.link_group(refs)
        outcome = cluster.group_commit(refs)
        assert outcome and outcome.committed
        assert cluster.converge()
        report, __ = cluster.evaluate(label="churned group")
        assert report.ok
