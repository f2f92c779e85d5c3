"""Message-step fault sweeps: every protocol message, every fault shape.

These are the acceptance sweeps of EX18: drop/duplicate/delay each
numbered message, crash each site at each step, partition at each step
and heal later — then demand the cross-site atomicity and convergence
oracles hold on the durable logs.  ``CHAOS_BUDGET=long`` (the nightly
job) sweeps every step of every scenario; the default keeps PR latency
sane by capping the step universe per scenario.
"""

import os

import pytest

import repro.chaos.cluster_scenarios  # noqa: F401  (registers the scenarios)
from repro.chaos.cluster_sweep import (
    coordinator_deaths,
    joins,
    leaves,
    message_faults,
    message_sweep,
    partitions,
    release_blackout_sweep,
    site_crashes,
    stranded_witness_sweep,
    takeover_death_sweep,
)
from repro.chaos.sweep import get, names, probe

LONG = os.environ.get("CHAOS_BUDGET") == "long"
STEP_LIMIT = None if LONG else 12

ALL_SCENARIOS = names("cluster")


def _assert_clean(result, judgment):
    """Every enumerated plan ran, under the expected judgment, green."""
    assert result.runs
    assert result.covered == result.universe
    assert {v.judgment for v in result.verdicts} == {judgment}
    assert result.ok, result.describe()


def test_probe_finds_message_steps():
    spec = get("cluster_group_commit")
    steps = probe(spec).messages
    assert steps, "the probe run must number fabric messages"
    kinds = {detail.split(":")[-1] for __, detail in steps}
    # The 2PC core must appear in the happy-path exchange.
    assert {"gc_begin", "prepare", "vote", "decision"} <= kinds


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_drop_duplicate_delay_every_message(name):
    spec = get(name)
    _assert_clean(message_sweep(
        spec, message_faults, ("drop", "duplicate", "delay"), limit=STEP_LIMIT
    ), "cluster")


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_crash_every_site_at_every_message(name):
    spec = get(name)
    _assert_clean(message_sweep(spec, site_crashes, spec.sites, limit=STEP_LIMIT), "cluster")


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_partition_at_every_message_then_heal(name):
    spec = get(name)
    _assert_clean(message_sweep(
        spec, partitions, spec.partition_splits(), limit=STEP_LIMIT
    ), "cluster")


@pytest.mark.parametrize(
    "name", ("cluster_group_commit", "cluster_membership_churn")
)
def test_kill_coordinator_at_every_message(name):
    # Permanent coordinator death at every step: the survivors' takeover
    # must settle every live member *before* the dead site restarts
    # (the two-phase failover judgment), and the full oracles — no dual
    # decision included — must hold after it does.
    spec = get(name)
    _assert_clean(message_sweep(spec, coordinator_deaths, limit=STEP_LIMIT), "failover")


def test_takeover_traffic_survives_a_second_death():
    # Wedge a takeover (kill the coordinator at the first vote), then
    # kill each site at every later step — including the takeover's own
    # queries, evidence, and usurper decision.  The second victim
    # restarts while the coordinator stays dead: force-logged claims
    # must resume, and a reborn-coordinator victim must self-takeover.
    spec = get("cluster_group_commit")
    steps = probe(spec).messages
    wedge = next(n for n, d in steps if d.endswith(":vote"))
    _assert_clean(takeover_death_sweep(
        spec, wedge, limit=None if LONG else 4
    ), "failover")


def test_decision_blackout_then_coordinator_death():
    # The drops-compose-with-kills window: every DECISION (fan-out and
    # heartbeat resends) vanishes while the coordinator dies
    # permanently at each step from its first release attempt onward.
    # Witness-confirmed release means no commit is ever force-logged
    # without an acknowledged witness, so the takeover's presumed abort
    # can never contradict the dead coordinator's log.
    spec = get("cluster_group_commit")
    _assert_clean(
        release_blackout_sweep(spec, limit=None if LONG else 6), "failover"
    )


def test_a_restarted_witness_still_testifies():
    # Three faults composed: the last DECISION of the release dropped,
    # the coordinator dead for good once the commit is sealed, and each
    # site power-cut at every later step.  The member that missed the
    # decision must take over and learn it from the witness — also when
    # that witness has restarted and holds the commit only in its log
    # (the PR 9 review's "restarted witness answers no trace";
    # ``restart_forgets_resolved_votes`` is the fix reverted, red here:
    # tests/cluster/test_restart_projection.py).
    spec = get("cluster_group_commit")
    _assert_clean(
        stranded_witness_sweep(spec, limit=None if LONG else 8), "failover"
    )


def test_join_at_every_message():
    spec = get("cluster_group_commit")
    _assert_clean(message_sweep(spec, joins, "delta", limit=STEP_LIMIT), "cluster")


def test_leave_at_every_message():
    spec = get("cluster_group_commit")
    _assert_clean(
        message_sweep(spec, leaves, "beta", "gamma", limit=STEP_LIMIT), "cluster"
    )


def test_failing_result_carries_reproduction_plan():
    # Every verdict describes a replayable plan, and a red one becomes a
    # FailureArtifact whose replay line is the CLI recipe — the contract
    # the replay CLI depends on.  (The red run comes from reverting
    # witness-confirmed release; tests/chaos/test_harness_sensitivity.py
    # replays the artifact through the CLI.)
    from tests.chaos.mutations import commit_logged_before_witness

    spec = get("cluster_group_commit")
    result = message_sweep(spec, message_faults, limit=1)
    (verdict,) = result.verdicts
    assert verdict.plan.to_dict()
    assert str(verdict.key) in verdict.plan.describe()
    assert verdict.detail.startswith("drop ")

    with commit_logged_before_witness():
        result = release_blackout_sweep(spec, limit=6)
    artifact = result.failures[0]
    failed = next(v for v in result.verdicts if not v.ok)
    assert artifact.plan == failed.plan.to_dict()
    assert artifact.violations == failed.all_violations
    assert artifact.judgment == "failover"
    assert artifact.replay.startswith(
        "PYTHONPATH=src python -m repro.chaos.replay cluster_group_commit"
        " --plan '"
    )
    assert f'"kill_coordinator_at": {failed.key}' in artifact.replay
