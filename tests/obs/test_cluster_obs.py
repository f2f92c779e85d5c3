"""Acceptance: a replayed cluster's spans match the ACTA history oracle.

One ``cluster_group_commit`` run carries three correlated witnesses —
the per-site ACTA history recorders, the span table, and the shared
logical clock.  The spans must tell the same story the histories do:
same start/terminal ticks per transaction, and the presumed-abort
group-commit ordering (every COMMITTED strictly after every PREPARED of
its group) visible across sites on the one clock.
"""

from repro.acta.history import HistoryRecorder
from repro.chaos.faults import FaultPlan
import repro.cluster.scenarios  # noqa: F401  (registers the scenarios)
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
