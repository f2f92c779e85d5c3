"""Cross-site primitives: proxies, dependencies, delegation, permits."""

import pytest

from repro.chaos.faults import FaultPlan
from repro.cluster import Cluster
from repro.common.errors import RetryExhausted
from repro.core.dependency import DependencyType
from repro.core.status import TransactionStatus


def _account(tag):
    def body(tx):
        oid = yield tx.create(tag + b"0")
        yield tx.write(oid, tag + b"1")
        return oid

    return body


def make_cluster(**kw):
    kw.setdefault("sites", ("alpha", "beta"))
    return Cluster(**kw)


class TestConsole:
    def test_spawn_wait_result(self):
        cluster = make_cluster()
        ref = cluster.spawn_at("alpha", _account(b"a"))
        assert ref.site == "alpha"
        assert cluster.wait(ref) == "completed"
        oid = cluster.result_of(ref)
        assert oid is not None

    def test_initiate_then_begin(self):
        cluster = make_cluster()
        ref = cluster.initiate_at("beta", _account(b"b"))
        assert ref is not None
        assert cluster.begin(ref)
        assert cluster.wait(ref) == "completed"

    def test_initiate_refused_returns_none(self):
        cluster = make_cluster()
        cluster.sites["beta"].manager.max_transactions = 0
        assert cluster.initiate_at("beta", _account(b"b")) is None

    def test_console_abort(self):
        cluster = make_cluster()
        ref = cluster.spawn_at("alpha", _account(b"a"))
        cluster.wait(ref)
        assert cluster.abort(ref, reason="console says no")
        td = cluster.sites["alpha"].manager.table.maybe_get(ref.tid)
        assert td.status is TransactionStatus.ABORTED
        assert td.abort_reason == "console says no"


class TestConsoleReplies:
    """The console keeps a reply only while some ``call`` awaits it."""

    def test_replies_that_arrive_after_the_timeout_are_not_kept(self):
        # Every message slips a round, so each of the four attempts
        # (each under a new msg_id) times out before its reply lands.
        cluster = make_cluster(
            plan=FaultPlan(delay_msg_at=range(1, 40)), rpc_timeout=2
        )
        with pytest.raises(RetryExhausted):
            cluster.spawn_at("alpha", _account(b"a"))
        assert cluster.converge()
        late = [
            entry for entry in cluster.fabric.delivery_log
            if entry[2] == "client"
        ]
        assert len(late) == 4  # all four replies did arrive, too late
        assert cluster._replies == {}

    def test_a_delayed_reply_inside_the_timeout_completes_its_call(self):
        cluster = make_cluster(
            plan=FaultPlan(delay_msg_at=range(1, 40)), rpc_timeout=4
        )
        ref = cluster.spawn_at("alpha", _account(b"a"))
        assert ref.site == "alpha"
        assert cluster.fabric.stats["delayed"] == 2
        assert cluster.retry.stats["retries"] == 0
        assert cluster._replies == {}

    def test_a_duplicated_reply_is_taken_once(self):
        cluster = make_cluster(plan=FaultPlan(dup_msg_at={2}))
        ref = cluster.spawn_at("alpha", _account(b"a"))
        assert cluster.wait(ref) == "completed"
        assert cluster.fabric.stats["duplicated"] == 1
        assert cluster._replies == {}


class TestProxies:
    def test_cross_site_gc_creates_proxy_web(self):
        cluster = make_cluster()
        a = cluster.spawn_at("alpha", _account(b"a"))
        b = cluster.spawn_at("beta", _account(b"b"))
        assert cluster.form_dependency(DependencyType.GC, a, b)
        alpha, beta = cluster.sites["alpha"], cluster.sites["beta"]
        # Each side holds a proxy for the other, GC-linked to its member.
        assert ("beta", b.tid.value) in alpha.proxies
        assert ("alpha", a.tid.value) in beta.proxies
        proxy_b = alpha.proxies[("beta", b.tid.value)]
        assert alpha.manager.dependencies.gc_group(a.tid) == {a.tid, proxy_b}

    def test_owner_learns_its_holders(self):
        cluster = make_cluster()
        a = cluster.spawn_at("alpha", _account(b"a"))
        b = cluster.spawn_at("beta", _account(b"b"))
        cluster.form_dependency(DependencyType.GC, a, b)
        cluster.settle(4)
        assert "beta" in cluster.sites["alpha"].remote_holders[a.tid.value]

    def test_abort_propagates_over_gc_web(self):
        cluster = make_cluster()
        a = cluster.spawn_at("alpha", _account(b"a"))
        b = cluster.spawn_at("beta", _account(b"b"))
        cluster.wait(a)
        cluster.wait(b)
        cluster.form_dependency(DependencyType.GC, a, b)
        cluster.abort(a, reason="console abort")
        cluster.settle(8)
        td = cluster.sites["beta"].manager.table.maybe_get(b.tid)
        assert td.status is TransactionStatus.ABORTED

    def test_ad_dependency_aborts_remote_dependent(self):
        cluster = make_cluster()
        a = cluster.spawn_at("alpha", _account(b"a"))
        b = cluster.spawn_at("beta", _account(b"b"))
        cluster.wait(a)
        cluster.wait(b)
        cluster.form_dependency(DependencyType.AD, a, b)
        cluster.abort(a, reason="dependee dies")
        cluster.settle(8)
        td = cluster.sites["beta"].manager.table.maybe_get(b.tid)
        assert td.status is TransactionStatus.ABORTED
        # ...but not the other way around: AD is directional.
        cluster2 = make_cluster()
        a2 = cluster2.spawn_at("alpha", _account(b"a"))
        b2 = cluster2.spawn_at("beta", _account(b"b"))
        cluster2.wait(a2)
        cluster2.wait(b2)
        cluster2.form_dependency(DependencyType.AD, a2, b2)
        cluster2.abort(b2, reason="dependent dies alone")
        cluster2.settle(8)
        td_a = cluster2.sites["alpha"].manager.table.maybe_get(a2.tid)
        assert not td_a.status.is_abort_bound


class TestDelegationAndPermit:
    def test_remote_delegate_attributes_to_proxy(self):
        cluster = make_cluster()
        giver = cluster.spawn_at("alpha", _account(b"g"))
        receiver = cluster.spawn_at("beta", _account(b"r"))
        cluster.wait(giver)
        cluster.wait(receiver)
        oid = cluster.result_of(giver)
        reply = cluster.delegate(giver, receiver, oids=[oid])
        assert reply["ok"] and reply["moved"]
        alpha = cluster.sites["alpha"]
        proxy = alpha.proxies[("beta", receiver.tid.value)]
        # The proxy now holds responsibility at the giver's site.
        proxy_td = alpha.manager.table.maybe_get(proxy)
        assert proxy_td.lock_on(oid) is not None

    def test_remote_write_under_permit(self):
        cluster = make_cluster()
        giver = cluster.spawn_at("alpha", _account(b"g"))
        receiver = cluster.spawn_at("beta", _account(b"r"))
        cluster.wait(giver)
        cluster.wait(receiver)
        oid = cluster.result_of(giver)
        assert cluster.permit(giver, receiver)["ok"]
        assert cluster.write_as(receiver, "alpha", oid, b"g2")
        got = cluster.read_as(receiver, "alpha", oid)
        assert got["granted"] and got["value"] == b"g2"

    def test_delegated_update_follows_receiver_abort(self):
        cluster = make_cluster()
        giver = cluster.spawn_at("alpha", _account(b"g"))
        receiver = cluster.spawn_at("beta", _account(b"r"))
        cluster.wait(giver)
        cluster.wait(receiver)
        oid = cluster.result_of(giver)
        cluster.delegate(giver, receiver, oids=[oid])
        cluster.abort(receiver, reason="receiver aborts")
        cluster.settle(8)
        # The proxy aborted with its owner, undoing the delegated
        # update (a created object: undo deletes it); the giver lives.
        alpha = cluster.sites["alpha"]
        assert not alpha.storage.objects.exists(oid)
        td = alpha.manager.table.maybe_get(giver.tid)
        assert not td.status.is_abort_bound
