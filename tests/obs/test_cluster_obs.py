"""Acceptance: a replayed cluster's spans match the ACTA history oracle.

One ``cluster_group_commit`` run carries three correlated witnesses —
the per-site ACTA history recorders, the span table, and the shared
logical clock.  The spans must tell the same story the histories do:
same start/terminal ticks per transaction, and the presumed-abort
group-commit ordering (every COMMITTED strictly after every PREPARED of
its group) visible across sites on the one clock.
"""

import repro.chaos.cluster_scenarios  # noqa: F401  (registers the scenarios)
from repro.acta.history import HistoryRecorder
from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get, run_plan
from repro.common.events import EventKind
from repro.obs import ObservabilityKit


def _observed_run(name):
    kit = ObservabilityKit()
    histories = {}

    def instrument(cluster):
        kit.attach_cluster(cluster)
        for site_name, site in cluster.sites.items():
            histories[site_name] = HistoryRecorder(site.manager)

    result = run_plan(get(name), FaultPlan(), instrument=instrument)
    assert result.ok, result.describe()
    return kit, histories


class TestSpansMatchHistory:
    def test_group_commit_spans_agree_with_the_oracle(self):
        kit, histories = _observed_run("cluster_group_commit")
        spans = {(s["trace"], s["tid"]): s for s in kit.spans.export()}
        assert spans

        checked = 0
        for site, history in histories.items():
            initiated = {
                e.tid.value: e.tick
                for e in history.of_kind(EventKind.INITIATE)
            }
            terminals = {}
            for kind, status in (
                (EventKind.COMMITTED, "committed"),
                (EventKind.ABORTED, "aborted"),
            ):
                for event in history.of_kind(kind):
                    terminals[event.tid.value] = (event.tick, status)
            for tid_value, tick in initiated.items():
                span = spans[(site, tid_value)]
                assert span["start"] == tick
                if tid_value in terminals:
                    end_tick, status = terminals[tid_value]
                    assert span["end"] == end_tick
                    assert span["status"] == status
                    checked += 1
        assert checked >= 3

    def test_cross_site_group_ordering_on_the_shared_clock(self):
        kit, __ = _observed_run("cluster_group_commit")
        groups = {}
        for span in kit.spans.export():
            if span["gid"] is not None:
                groups.setdefault(span["gid"], []).append(span)
        assert groups, "the 2PC run must prepare at least one group"
        for gid, members in groups.items():
            committed = [s for s in members if s["status"] == "committed"]
            prepares = [s["prepared"] for s in members]
            assert committed, f"group {gid} never committed"
            # Presumed abort: no member's commit precedes any member's
            # prepare — across sites, on the one shared clock.
            assert min(s["end"] for s in committed) > max(prepares)
            # Group members span more than one site.
            assert len({s["trace"] for s in members}) >= 2

    def test_remote_driven_spans_carry_correlation_and_origin(self):
        kit, __ = _observed_run("cluster_group_commit")
        spans = kit.spans.export()
        # Proxies resolve to their owner's identity: some span's
        # correlation names a *different* site than its trace.
        foreign = [
            s
            for s in spans
            if not s["correlation"].startswith(s["trace"] + ":")
        ]
        assert foreign, "expected proxy spans correlated to their owners"
        assert any(s["origin_msg"] is not None for s in foreign)
        # All spans of one logical transaction share its correlation id.
        by_correlation = {}
        for span in spans:
            by_correlation.setdefault(span["correlation"], []).append(span)
        assert any(len(group) >= 2 for group in by_correlation.values())


MARKS = ("takeover_started", "takeover_decided")


class TestGroupMarks:
    """Takeover marks land on the spans of the transactions the vote
    covered — found through the group record, not by walking the span
    table (ROADMAP 6(d))."""

    def test_marks_land_where_a_scan_of_every_span_would_put_them(self):
        kit = ObservabilityKit()
        spec = get("cluster_group_commit")
        result = run_plan(
            spec, FaultPlan(kill_coordinator_at=32), instrument=kit.attach_cluster
        )
        assert result.ok, result.describe()
        takers = {
            name: site
            for name, site in result.system.sites.items()
            if site.stats["takeovers_decided"]
        }
        assert takers
        marked = 0
        for span in kit.spans.export():
            kinds = [link["type"] for link in span["links"] if link["type"] in MARKS]
            # The parent's rule: every span of the taker's trace that a
            # PREPARED event stamped with the gid carries the marks.
            if span["trace"] in takers and span["gid"] is not None:
                assert kinds == list(MARKS), span
                assert all(
                    link["gid"] == span["gid"]
                    for link in span["links"]
                    if link["type"] in MARKS
                )
                marked += 1
            else:
                assert kinds == [], span
        assert marked >= len(takers)

    def test_a_mark_probes_only_the_members_spans(self):
        from repro.cluster import Cluster
        from tests.cluster.test_two_phase import spawn_group

        cluster = Cluster()
        kit = ObservabilityKit().attach_cluster(cluster)
        for __ in range(50):
            assert cluster.group_commit(spawn_group(cluster)).committed
        assert cluster.converge()
        site = cluster.sites["beta"]
        assert len(kit.spans.spans) > 300 and len(site.groups) == 50

        class Probed(dict):
            probes = walks = 0

            def get(self, key, default=None):
                Probed.probes += 1
                return super().get(key, default)

            def __iter__(self):
                Probed.walks += 1
                return super().__iter__()

            def items(self):
                Probed.walks += 1
                return super().items()

        kit.spans.spans = Probed(kit.spans.spans)
        group = site._group(max(site.groups))
        site._obs_link(
            group.tids, "takeover_started", gid=group.gid, epoch=1, old="alpha"
        )
        assert Probed.walks == 0
        assert 0 < Probed.probes <= len(group.tids)
        for tid in group.tids:
            links = kit.spans.spans[(site.name, tid.value)]["links"]
            assert links[-1]["type"] == "takeover_started"
            assert links[-1]["gid"] == group.gid


class TestHandoffMark:
    """A leave's handoff marks the spans of the transactions it moved
    (ROADMAP 6(d): it used to mark the members of gid 0, which no site
    holds, so no span ever carried it)."""

    def test_a_moved_transaction_carries_handoff_done(self):
        from repro.cluster import Cluster

        cluster = Cluster()
        kit = ObservabilityKit().attach_cluster(cluster)

        def account(tx):
            oid = yield tx.create(b"h0")
            yield tx.write(oid, b"h1")
            return oid

        ref = cluster.spawn_placed("acct-2", account)
        assert ref.site == "beta"
        cluster.wait(ref)
        assert cluster.leave_site("beta", "gamma")["moved"] == 1
        span = kit.spans.spans[("beta", int(ref.tid))]
        marks = [
            link for link in span["links"] if link["type"] == "handoff_done"
        ]
        assert len(marks) == 1 and marks[0]["moved"] == 1
        assert set(marks[0]) == {"type", "tick", "moved"}
