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

import gc
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
from repro.cluster.group import Group
from repro.cluster.site import Site
from repro.core.manager import TransactionManager
from repro.net.fabric import Message
from repro.runtime.coop import CooperativeRuntime
from repro.storage import log as log_module
from repro.storage.log import DecisionRecord, PrepareRecord, WriteAheadLog
from repro.workflow.engine import WorkflowEngine
from tests.chaos.mutations import tick_skips_unsettled_site
from tests.cluster.test_two_phase import spawn_group
from tests.storage.scan_oracle import group_evidence_scan
from tests.workflow.test_durable import (
    _approval_definition,
    _engine,
    _make_oids,
)

IDLE_TICK_CALLS = 16  # 13 now; 30 by this count at the parent of PR 19


def calls_during(function):
    """Every Python and builtin call ``function()`` makes, as the callee
    (a code object or a builtin), in order.  The collector runs before
    the window and not inside it: a suspended generator it closes there
    runs its own frame, which is not a call ``function`` made
    (``TestTheCollectorStaysOutOfTheWindow``).  After a ``steal_window``
    crash sweep, a collection due inside the window of four committed
    groups records seven ``chaos/scenarios.py`` frames (the red of
    ``test_fault_free.py::test_no_chaos_code_runs``, at the parent of
    this guard too); guarded, the window records none.  Only the
    collector's work is kept out: with nothing to finalise, the same
    four groups show the same 14,077 calls guarded or not (EX35)."""
    seen = []

    def profiler(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code)
        elif event == "c_call" and arg is not sys.setprofile:
            seen.append(arg)

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return seen[1:]  # seen[0] is ``function`` itself


def commit_groups(cluster, groups):
    for __ in range(groups):
        assert cluster.group_commit(spawn_group(cluster)).committed
    assert cluster.converge()


class TestTheCollectorStaysOutOfTheWindow:
    def test_a_leftover_generator_is_not_finalised_inside(self):
        """A suspended generator in a reference cycle runs its own frame
        when the collector closes it.  With a collection due inside the
        window, a profiler that let it run there would count that frame
        as a call the function made (red with the collector left on)."""
        def body():
            yield

        threshold, enabled = gc.get_threshold(), gc.isenabled()
        gc.disable()
        try:
            leftover = body()
            next(leftover)
            cycle = [leftover, leftover]
            cycle[1] = cycle
            del leftover, cycle
            # Due a few allocations on: inside the window, not before it.
            gc.set_threshold(gc.get_count()[0] + 20)
            gc.enable()
            calls = calls_during(lambda: [[] for __ in range(100)])
        finally:
            gc.set_threshold(*threshold)
            if not enabled:
                gc.disable()
        assert body.__code__ not in calls


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
        assert [g.phase for g in site.ledger()] == ["prepared"]
        assert site.unsettled()
        touched = _watch(site)
        site.on_tick()
        assert set(touched) == set(PROTOCOL_MAPS)


class TestRestartDecodesNothingTwice:
    """A power cut decodes what survived once (the crash simulation's
    ``resync``); the restart that follows reads that decoded tail for
    recovery *and* for the site's takeover / decision / prepare
    evidence, and decodes nothing below a restart point: the checkpoint
    marker's summary vouches for it.  So do a workflow engine's
    ``recover()`` and ``start``'s next wid."""

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
        assert decoded == []
        # The evidence folded from the decoded tail is the durable log's.
        assert site.voted_gids == {
            r.gid for r in durable if isinstance(r, PrepareRecord)
        }
        decided = {
            r.gid: r.verdict for r in durable if isinstance(r, DecisionRecord)
        }
        assert decided and decided.items() <= site.settled_gids.items()
        assert cluster.converge()

    @pytest.mark.parametrize("truncate", [False, True])
    def test_workflow_recovery_and_next_wid_decode_nothing(
        self, monkeypatch, truncate
    ):
        runtime = CooperativeRuntime()
        oids = _make_oids(runtime, ("order", "audit"))
        engine = _engine(runtime, _approval_definition("approval", oids))
        parked, finished = engine.start("approval"), engine.start("approval")
        engine.signal(finished, "approve")
        storage = runtime.manager.storage
        runtime.manager.checkpoint(truncate=truncate)
        assert storage.log.base > 0 or truncate
        storage.crash()
        storage.recover()
        successor = WorkflowEngine(
            CooperativeRuntime(TransactionManager(storage=storage)),
            engine.registry,
        )
        decoded = []
        real = log_module.decode_record
        monkeypatch.setattr(
            log_module, "decode_record",
            lambda raw: decoded.append(1) or real(raw),
        )
        assert successor.recover() == [parked]
        assert successor.start("approval") == finished + 1
        assert decoded == []


class TestRestartCostsWhatIsUnresolved:
    """After fault-free groups every site crashes and restarts.  The
    group evidence comes off the log's index, not a walk of
    ``records()``; recovery's in-doubt loop visits only open votes (none
    here); and a decision is re-sent only to the members that had not
    acknowledged it when it was sealed: none in a two-site group, one in
    a three-site group (the first ACK seals it).  Before the index kept
    the evidence, the same restarts made 3 ``records()`` calls and
    re-sent every decision to every remote member.  The records the
    restart folds are those decisions' (and the open votes', none
    here); every other is re-derived on its first mention."""

    SITES = (("alpha", "beta"), ("alpha", "beta", "gamma"))

    def _restart_all(self, groups, monkeypatch):
        cluster = Cluster()
        for index in range(groups):
            refs = spawn_group(cluster, self.SITES[index % 2])
            assert cluster.group_commit(refs).committed
        assert cluster.converge()
        for name in sorted(cluster.sites):
            cluster.crash_site(name)
        walks, votes, sent = [], [], []
        records, analysis = WriteAheadLog.records, WriteAheadLog.analysis
        monkeypatch.setattr(
            WriteAheadLog, "records",
            lambda log, *a: walks.append(log) or records(log, *a),
        )

        def analysed(log):
            result = analysis(log)
            votes.extend(result[2])
            return result

        monkeypatch.setattr(WriteAheadLog, "analysis", analysed)
        send = cluster.fabric.send
        monkeypatch.setattr(
            cluster.fabric, "send",
            lambda src, dst, kind, *a, **k: (
                sent.append(kind) or send(src, dst, kind, *a, **k)
            ),
        )
        calls = calls_during(
            lambda: [cluster.restart_site(name) for name in sorted(cluster.sites)]
        )
        monkeypatch.undo()
        assert cluster.converge()
        return cluster, walks, votes, sent.count("decision"), calls

    @pytest.mark.parametrize("groups", [4, 12])
    def test_restart_reads_the_index_and_re_sends_only_what_is_owed(
        self, monkeypatch, groups
    ):
        cluster, walks, votes, decisions, calls = self._restart_all(
            groups, monkeypatch
        )
        assert walks == []
        assert votes == []
        assert decisions == groups // 2  # one per three-site group
        assert isinstance not in calls
        assert log_module.decode_record not in calls
        for site in cluster.sites.values():
            # The evidence the index folded is what a walk finds.
            assert site.storage.log.group_evidence()[:3] == group_evidence_scan(
                site.storage.log
            )

    @pytest.mark.parametrize("groups", [4, 12])
    def test_restart_folds_only_the_decisions_owed_a_re_send(
        self, monkeypatch, groups
    ):
        """Every other record is left for its first mention: the
        restarts fold one record per three-site group and re-initialise
        no other :class:`Group` (at the parent of this gate every record
        was wiped and every gid the log names folded: 10 and 30 records
        here)."""
        calls = self._restart_all(groups, monkeypatch)[4]
        assert calls.count(Group.__init__.__code__) == groups // 2
        assert calls.count(Site._fold.__code__) == groups // 2

    def test_a_finished_descriptor_holds_nothing(self):
        """What a restart frees of the old manager is one slotted object
        per transaction: a terminated TD keeps its tid, parent, status
        and abort reason, and lets go of its program, arguments, lock
        list and savepoint list."""
        cluster = Cluster()
        commit_groups(cluster, 1)
        finished = [
            td
            for site in cluster.sites.values()
            for td in site.manager.table
            if td.status.is_terminated
        ]
        assert len(finished) >= 3
        for td in finished:
            assert not hasattr(td, "__dict__")
            assert (td.function, td.args, td.locks, td.savepoints) == (
                None, (), (), (),
            )

    def test_reading_the_evidence_does_not_grow_with_history(
        self, monkeypatch
    ):
        """What the restart asks of the log for its evidence costs the
        same after 4 groups and after 12: no record is visited."""
        costs = []
        for groups in (4, 12):
            cluster = self._restart_all(groups, monkeypatch)[0]
            log = cluster.sites["alpha"].storage.log
            costs.append(len(calls_during(log.group_evidence)))
        assert costs[0] == costs[1] <= 2  # the lock's enter and exit


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
