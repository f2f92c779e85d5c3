"""What a cluster round costs when nothing moves — as counts, no clock.

A round visits what has work: the fabric drains non-empty inboxes in an
order fixed at ``register``, ``Cluster.tick`` walks a site order rebuilt
only where a site is added, a site whose ``unsettled()`` is false
returns after its runtime's round, and a runtime with no live task
answers at once.  A send under a plan that cannot fire yet asks the plan
for ``first_step`` and nothing else.  The gates are call counts taken
with ``sys.setprofile`` (Python and builtin calls alike) in the
``test_coop_retirement.py`` / ``test_hot_path_counts.py`` style.
"""

import sys

import pytest

from repro.chaos.cluster_scenarios import planned_cluster
from repro.chaos.cluster_sweep import (
    message_faults,
    message_sweep,
    release_blackout_sweep,
)
from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get
from repro.cluster import Cluster
from repro.net.fabric import Message
from repro.storage import log as log_module
from repro.storage.log import DecisionRecord, PrepareRecord
from tests.chaos.mutations import tick_skips_unsettled_site
from tests.cluster.test_two_phase import spawn_group

IDLE_TICK_CALLS = 16  # 13 now; 30 by this count at the parent of PR 19


def calls_during(function):
    """Every Python and builtin call ``function()`` makes, as the callee
    (a code object or a builtin), in order."""
    seen = []

    def profiler(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code)
        elif event == "c_call" and arg is not sys.setprofile:
            seen.append(arg)

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return seen[1:]  # seen[0] is ``function`` itself


def commit_groups(cluster, groups):
    for __ in range(groups):
        assert cluster.group_commit(spawn_group(cluster)).committed
    assert cluster.converge()


class TestIdleTick:
    def test_costs_the_same_after_5_and_after_55_groups(self):
        cluster = Cluster()
        commit_groups(cluster, 5)
        early = len(calls_during(cluster.tick))
        commit_groups(cluster, 50)
        late = len(calls_during(cluster.tick))
        assert early == late
        assert 0 < late <= IDLE_TICK_CALLS

    def test_sorts_nothing(self):
        cluster = Cluster()
        commit_groups(cluster, 3)
        assert sorted not in calls_during(cluster.tick)

    def test_a_joined_site_is_walked_in_name_order(self):
        cluster = Cluster(sites=("beta", "gamma"))
        cluster.join_site("alpha")
        assert [site.name for site in cluster._tick_order] == [
            "alpha", "beta", "gamma",
        ]
        assert cluster.fabric._delivery_order == sorted(cluster.fabric.inboxes)
        ticked = []
        for site in cluster.sites.values():
            site.on_tick = lambda name=site.name: ticked.append(name)
        cluster.tick()
        assert ticked == ["alpha", "beta", "gamma"]


class _Watched:
    """Mixin: records every walk of (or lookup in) the container.  The
    truth test ``unsettled()`` makes goes through the C length slot and
    is not a walk."""

    def watch(self, name, touched):
        self._name, self._touched = name, touched
        return self

    def __iter__(self):
        self._touched.append(self._name)
        return super().__iter__()

    def __contains__(self, key):
        self._touched.append(self._name)
        return super().__contains__(key)


class _WatchedDict(_Watched, dict):
    def __getitem__(self, key):
        self._touched.append(self._name)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._touched.append(self._name)
        return super().get(key, default)


class _WatchedSet(_Watched, set):
    pass


# The ledger and its has-work index: all the gid-keyed state a site has
# (was: pending_prepares, open_groups, prepared, in_doubt, taking_over).
PROTOCOL_MAPS = ("groups", "active")


def _watch(site):
    touched = []
    for name in PROTOCOL_MAPS:
        current = getattr(site, name)
        kind = _WatchedSet if isinstance(current, set) else _WatchedDict
        setattr(site, name, kind(current).watch(name, touched))
    return touched


class TestSettledSite:
    def test_on_tick_walks_none_of_the_protocol_maps(self):
        cluster = Cluster()
        commit_groups(cluster, 2)
        site = cluster.sites["beta"]
        touched = _watch(site)
        assert not site.unsettled() and site.handoff is None
        calls = calls_during(site.on_tick)
        assert touched == []
        assert sorted not in calls
        assert site.ticks  # it did tick: the runtime round ran first

    def test_an_unsettled_site_still_does_its_duty(self):
        # The same instrumentation sees the walks once there is work:
        # a prepared member whose coordinator went silent.
        cluster = planned_cluster(FaultPlan(drop_msg_kinds={"decision"}))
        refs = spawn_group(cluster)
        outcome = cluster.group_commit(refs, coordinator="alpha", timeout=4)
        assert not outcome.resolved
        site = cluster.sites["beta"]
        # was: ``site.prepared``
        assert [g.phase for g in site.groups.values()] == ["prepared"]
        assert site.unsettled()
        touched = _watch(site)
        site.on_tick()
        assert set(touched) == set(PROTOCOL_MAPS)


class TestRestartDecodesNothingTwice:
    """A power cut decodes what survived once (the crash simulation's
    ``resync``); the restart that follows reads that decoded tail for
    recovery *and* for the site's takeover / decision / prepare
    evidence, and decodes only what lies below a restart point."""

    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_crash_plus_restart_decode_each_durable_record_once(
        self, monkeypatch, checkpointed
    ):
        cluster = Cluster()
        commit_groups(cluster, 3)
        site = cluster.sites["alpha"]
        if checkpointed:
            site.storage.checkpoint()
            commit_groups(cluster, 2)
        durable = site.durable_records()
        below = site.storage.log.base
        assert bool(below) == checkpointed
        decoded = []
        real = log_module.decode_record
        monkeypatch.setattr(
            log_module, "decode_record",
            lambda raw: decoded.append(1) or real(raw),
        )
        cluster.crash_site("alpha")
        assert len(decoded) == len(durable) - below
        del decoded[:]
        cluster.restart_site("alpha")
        assert len(decoded) == below
        # The evidence folded from the decoded tail is the durable log's.
        assert site.voted_gids == {
            r.gid for r in durable if isinstance(r, PrepareRecord)
        }
        decided = {
            r.gid: r.verdict for r in durable if isinstance(r, DecisionRecord)
        }
        assert decided and decided.items() <= site.settled_gids.items()
        assert cluster.converge()


class TestSendUnderTheDefaultPlan:
    def test_a_message_is_a_slotted_record(self):
        message = Message(1, "alpha", "beta", "vote")
        assert not hasattr(message, "__dict__")
        assert message.payload == {} and message.reply_to is None
        with pytest.raises(AttributeError):
            message.extra = 1

    def test_send_asks_the_plan_for_its_first_step_and_nothing_else(self):
        asked = []

        class WatchedPlan(FaultPlan):
            def __getattribute__(self, name):
                asked.append(name)
                return super().__getattribute__(name)

        cluster = planned_cluster(WatchedPlan())
        marks = []
        fire = cluster.injector._fire_marks
        cluster.injector._fire_marks = (
            lambda number: marks.append(number) or fire(number)
        )
        del asked[:]
        commit_groups(cluster, 2)
        assert cluster.injector.step_count > 80
        assert cluster.fabric.stats["sent"] > 50
        assert set(asked) == {"first_step"}
        assert marks == []

    def test_the_marks_are_tested_from_the_first_step_on(self):
        cluster = planned_cluster(FaultPlan(join_site_at=("delta", 20)))
        marks = []
        fire = cluster.injector._fire_marks
        cluster.injector._fire_marks = (
            lambda number: marks.append(number) or fire(number)
        )
        commit_groups(cluster, 1)
        assert "delta" in cluster.sites
        sends = [n for n, *__ in cluster.fabric.delivery_log]
        assert marks == [n for n in sends if n >= 20]
        assert marks[0] == 20


class TestTheSweepsGuardTheGuard:
    """``tick_skips_unsettled_site`` makes the tick's guard return while
    ``prepared`` is non-empty; the sweeps — not review — must see it."""

    def test_red_on_the_message_sweep(self):
        spec = get("cluster_group_commit")
        assert message_sweep(spec, message_faults, ("drop",)).ok
        with tick_skips_unsettled_site():
            result = message_sweep(spec, message_faults, ("drop",))
        assert not result.ok
        # A participant that lost its DECISION after the witness sealed
        # the group can only learn the verdict by asking, on a tick.
        assert "drop alpha->beta:decision" in [
            failure.detail for failure in result.failures
        ]

    def test_red_on_the_release_blackout_sweep(self):
        spec = get("cluster_group_commit")
        assert release_blackout_sweep(spec, limit=4).ok
        with tick_skips_unsettled_site():
            result = release_blackout_sweep(spec, limit=4)
        assert not result.ok and result.failures

    def test_the_mutation_restores_the_tick(self):
        from repro.cluster.site import Site

        original = Site.on_tick
        with tick_skips_unsettled_site():
            assert Site.on_tick is not original
        assert Site.on_tick is original
