"""Property: a record re-derived on first mention is the one an eager
restart would have derived.

A restarted site folds only its open votes and the decisions it owes a
re-send; every other group record keeps what an earlier incarnation
derived until ``Site._group`` first reads it and re-derives it from the
evidence the restart read.  Hypothesis builds crash/restart histories
from the cluster sweep dimensions — the healthy, wedge (coordinator
killed at the first vote), blackout (every DECISION dropped) and
stranded (the last DECISION dropped, the coordinator killed once the
commit is sealed) probes of ``cluster_group_commit``, each site
power-cut at each of their message steps, a checkpoint of a site at a
tick or before the last power-cycle (so a later restart reads its
evidence below the restart point), and a last power-cycle of every site
— and runs each twice: as the site runs, and with
:func:`fold_oracle.eager_restart`.  After every restart, message and
tick (or every ``stride``-th of them, so that some records are first
mentioned by a handler rather than by the check), every record read
through ``Site._group`` equals the oracle's field by field with the same
``evidence()``, and ``Site.active`` the oracle's.
"""

import os
from contextlib import nullcontext
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.cluster_scenarios import CONVERGE_ROUNDS  # and registers the scenarios
from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get, probe, run_plan
from repro.cluster import Cluster
from repro.cluster.site import Site
from tests.chaos.mutations import stale_record_served
from tests.cluster.fold_oracle import eager_fold, ledger_state

MAX_EXAMPLES = 200 if os.environ.get("CHAOS_BUDGET") == "long" else 12

SPEC = get("cluster_group_commit")
HEALTHY = probe(SPEC).messages
FIRST_VOTE = next(n for n, d in HEALTHY if d.endswith(":vote"))
LAST_DECISION = [n for n, d in HEALTHY if d.endswith(":decision")][-1]
# ``stranded_witness_sweep``'s base: the last DECISION of the release is
# lost and the coordinator dies once the commit is sealed, so the member
# that missed it takes over and polls the witness.
SEALED = next(
    n
    for n, d in probe(SPEC, FaultPlan(drop_msg_at={LAST_DECISION})).messages
    if d.endswith(":gc_begin.reply")
)
PROBES = {
    "healthy": FaultPlan(),
    "wedge": FaultPlan(kill_coordinator_at=FIRST_VOTE),
    "blackout": FaultPlan(drop_msg_kinds=frozenset({"decision"})),
    "stranded": FaultPlan(drop_msg_at={LAST_DECISION}, kill_coordinator_at=SEALED),
}
STEPS = {
    label: [number for number, __ in probe(SPEC, plan).messages]
    for label, plan in PROBES.items()
}


@st.composite
def histories(draw):
    label = draw(st.sampled_from(sorted(PROBES)))
    crash = draw(
        st.none()
        | st.tuples(st.sampled_from(SPEC.sites), st.sampled_from(STEPS[label]))
    )
    checkpoint = draw(
        st.none()
        | st.tuples(st.sampled_from(SPEC.sites), st.just(0) | st.integers(1, 60))
    )
    stride = draw(st.sampled_from([1, 1, 2, 5, 11]))
    cycle = draw(st.none() | st.permutations(SPEC.sites).map(tuple))
    return label, crash, checkpoint, stride, cycle


def run(history, mutation=None):
    """Drive ``history``; returns the ledger states it checked and the
    sweep's verdict.  With ``mutation`` (a context manager), the run is
    under it.

    A history is ``(probe label, (site, step) power-cut or None, (site,
    tick) checkpoint or None, stride, restart order or None)``.  A
    checkpoint at tick 0 is taken before the last power-cycle; that
    cycle cuts every site, then restarts them in the order given, the
    cluster converging after each, so a restarted coordinator's DECISION
    re-sends reach records no restart has folded yet.
    """
    label, crash, checkpoint, stride, cycle = history
    plan = PROBES[label]
    if crash is not None:
        plan = plan.with_(site_crash_at=crash)
    states, steps, ticks = [], [0], [0]

    def checked(name):
        original = getattr(Site, name)

        def step(site, *args):
            try:
                return original(site, *args)
            finally:
                steps[0] += 1
                if steps[0] % stride == 0:
                    states.append((steps[0], site.name, name, ledger_state(site)))

        return step

    tick = Cluster.tick

    def ticked(cluster):
        tick(cluster)
        ticks[0] += 1
        if checkpoint is not None and ticks[0] == checkpoint[1]:
            site = cluster.sites[checkpoint[0]]
            if site.up:
                site.storage.checkpoint()

    with mutation or nullcontext(), patch.multiple(
        Site,
        on_message=checked("on_message"),
        on_tick=checked("on_tick"),
        restart=checked("restart"),
    ), patch.object(Cluster, "tick", ticked):
        verdict = run_plan(SPEC, plan)
        cluster = verdict.system
        if cycle is not None:
            if checkpoint is not None and not checkpoint[1]:
                cluster.sites[checkpoint[0]].storage.checkpoint()
            for name in cycle:
                cluster.crash_site(name)
            for name in cycle:
                cluster.restart_site(name)
                cluster.converge(CONVERGE_ROUNDS)
        for name, site in sorted(cluster.sites.items()):
            states.append((steps[0], name, "end", ledger_state(site)))
    return states, verdict


def diverged(history, mutation=None):
    """The first state where the run differs from the eager oracle's, or
    ``None``."""
    with eager_fold():
        expected, oracle = run(history)
    assert oracle.ok, oracle.describe()
    got, __ = run(history, mutation)
    for mine, theirs in zip(got, expected):
        if mine != theirs:
            return mine, theirs
    if len(got) != len(expected):
        return len(got), len(expected)
    return None


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(histories())
# The witness (beta) checkpointed after it committed, then power-cut
# while the stranded member polls it: both folds once judged its vote
# against the tail's winners alone, and it testified "aborted".
@example(("stranded", ("beta", 47), ("beta", 18), 1, None))
def test_every_record_read_is_the_eager_fold(history):
    assert diverged(history) is None


class TestStaleRecordServed:
    """The mutation: ``Site._group`` hands out an earlier incarnation's
    record without re-deriving it."""

    def test_red_on_a_pinned_history(self):
        # A participant power-cut while prepared comes back with the
        # record it had before the cut and not in doubt.
        history = ("healthy", ("beta", FIRST_VOTE), None, 1, None)
        assert diverged(history) is None
        assert diverged(history, stale_record_served()) is not None

    def test_red_on_a_stranded_witness_plan(self):
        # One of ``stranded_witness_sweep``'s plans: the member that
        # missed the DECISION is cut while it polls for a takeover.  It
        # comes back holding its pre-cut record, is not put back on
        # ``active``, and never resolves.
        step = next(
            n
            for n, d in probe(SPEC, PROBES["stranded"]).messages
            if d.endswith("gamma->alpha:takeover_query")
        )
        plan = PROBES["stranded"].with_(site_crash_at=("gamma", step))
        assert run_plan(SPEC, plan).ok
        with stale_record_served():
            verdict = run_plan(SPEC, plan)
        assert [v for v in verdict.all_violations if "still in doubt" in v]

    def test_red_on_the_last_power_cycle(self):
        # Nothing in flight: the settled records the cut left behind
        # must still come back as their evidence says.
        history = ("healthy", None, None, 1, SPEC.sites)
        assert diverged(history) is None
        assert diverged(history, stale_record_served()) is not None
