"""Crash matrix for group commit: every crash point × batch sizes 1..N.

The FlushCoalescer's enrollment window is where group commit earns (or
loses) its durability story: a commit enrolled in a pending batch has
been *promised* but not yet flushed.  The matrix sweeps every numbered
I/O step — including every ``gc_enroll`` step — for every batch size,
and checks the paper's contract directly on each run:

    every acknowledged commit is either durably recovered (a winner whose
    effect survives) XOR cleanly a loser (fate aborted, effect absent) —
    never half of each, and never a durable ack lost.
"""

import pytest

from repro.chaos import scenarios
from repro.chaos.faults import GC_ENROLL, FaultPlan
from repro.chaos.oracles import analyze_log
from repro.chaos.scenarios import GC_BURST_COMMITS
from repro.chaos.stack import read_state
from repro.chaos.sweep import crash_sweep, probe, run_plan

BATCHES = (1, 2, 3, 4)


def committed_xor_loser(outcome):
    """Assert the recovered-XOR-loser contract for one faulted run.

    Returns the number of acknowledged commits that were recovered, for
    callers that want to assert distribution properties too.
    """
    stack = outcome.system
    analysis = analyze_log(outcome.restarted.durable_records)
    state = read_state(outcome.restarted.storage)
    oids = stack.intent.oids
    recovered = 0
    # Writer i (acked or not) wrote b"w{i+1}" over b"w0" on object w{i}.
    for index in range(GC_BURST_COMMITS):
        oid = oids.get(f"w{index}")
        if oid is None:
            return recovered  # crashed before setup finished
        new, old = b"w%d" % (index + 1), b"w0"
        actual = state.get(oid.value)
        if actual == new:
            recovered += 1
        else:
            # Cleanly a loser: the old value, not a torn in-between.
            assert actual in (old, None), (
                f"object w{index} recovered {actual!r}: neither the"
                f" committed value {new!r} nor the clean pre-value {old!r}"
            )
    # Durable acks must be winners with surviving effects (the oracle
    # checks this too; the matrix re-derives it independently).
    for tid in stack.durable_acks:
        assert tid in analysis.winners
    return recovered


class TestGroupCommitCrashMatrix:
    @pytest.mark.parametrize("batch", BATCHES)
    def test_full_sweep_passes_with_complete_coverage(self, batch,
                                                      keep_tail_modes):
        spec = scenarios.make_group_commit_scenario(batch)
        result = crash_sweep(spec, keep_tail_modes=keep_tail_modes)
        assert result.ok, result.describe()
        assert result.coverage_complete

    @pytest.mark.parametrize("batch", BATCHES)
    def test_enrollment_window_is_in_the_step_universe(self, batch):
        """Batching defers flushes, so commits *enroll*; the sweep must
        actually be crashing inside that window."""
        spec = scenarios.make_group_commit_scenario(batch)
        trace = probe(spec)
        enrollments = trace.steps_of_kind(GC_ENROLL)
        # Every burst commit enrolls (the setup commit does too).
        assert len(enrollments) >= GC_BURST_COMMITS
        # Fewer log flushes than commits once batching kicks in: the
        # coalescer is genuinely coalescing, not degenerating to one
        # flush per commit.
        if batch > 1:
            assert trace.steps_of_kind("log_flush")

    @pytest.mark.parametrize("batch", BATCHES)
    def test_crash_at_every_enrollment_recovered_xor_loser(self, batch):
        spec = scenarios.make_group_commit_scenario(batch)
        for step in probe(spec).steps_of_kind(GC_ENROLL):
            outcome = run_plan(spec, FaultPlan(
                crash_at=step, label=f"crash@enroll:{step}"
            ))
            assert outcome.ok, outcome.oracle.describe()
            committed_xor_loser(outcome)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_crash_at_every_step_recovered_xor_loser(self, batch):
        """The explicit XOR contract at *every* crash point, not only
        the enrollment window."""
        spec = scenarios.make_group_commit_scenario(batch)
        for step in range(1, probe(spec).step_count + 1):
            outcome = run_plan(spec, FaultPlan(crash_at=step))
            assert outcome.ok, outcome.oracle.describe()
            committed_xor_loser(outcome)

    def test_deferral_window_acks_are_hollow(self):
        """With a batch that never fills mid-burst, a commit acked from
        inside the deferral window has no durable commit record yet —
        the stack must classify it hollow, because a crash right there
        loses it."""
        spec = scenarios.make_group_commit_scenario(4)
        stack = probe(spec).system
        # The burst's commits were acked; with max_commits=4 at least one
        # ack was issued while its batch was still pending.
        assert len(stack.acks) > len(stack.durable_acks)
