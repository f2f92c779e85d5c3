"""Recovery must survive its own crashes (EX13, strengthened).

The original EX13 experiment re-runs recovery twice; these tests crash
recovery *partway through at every one of its own I/O steps*, reboot,
and recover again — as many times as it takes — then require the final
state to be byte-identical to an uninterrupted recovery of the same
crash.  A recovery that is idempotent only at its end, but not at every
internal prefix, fails here.
"""

import pytest

from repro.chaos import scenarios
from repro.chaos.faults import CrashPoint, FaultInjector, FaultPlan
from repro.chaos.oracles import check_idempotent, evaluate_recovery
from repro.chaos.stack import read_state
from repro.chaos.sweep import probe

# A representative mid-run crash per scenario: deep enough that the log
# holds both winners and losers, so recovery has real redo *and* undo
# work whose own I/O can be interrupted.
CASES = [
    ("ex10_commit_abort", None),  # None: picked from the probe, below
    ("checkpoint_window", None),
    ("checkpoint_mark_sharded", None),  # two segments: one restart path
]


def crash_step_with_undo_work(spec):
    """A crash point right after the scenario's page write-back: the log
    then carries uncommitted effects already on disk — maximal recovery
    work (redo + undo + abort-record writes)."""
    trace = probe(spec)
    pool_flushes = trace.steps_of_kind("pool_flush")
    assert pool_flushes, f"{spec.name} never write-backs dirty pages"
    # Two steps past the flush boundary: the pages went out, then death.
    return min(pool_flushes[-1] + 2, trace.step_count)


def crashed_stack(spec, crash_at):
    stack = spec.build(plan=FaultPlan(crash_at=crash_at))
    with pytest.raises(CrashPoint):
        spec.drive(stack)
    return stack


def recover_uninterrupted(spec, crash_at):
    stack = crashed_stack(spec, crash_at)
    system = stack.restart()
    return stack, system


def count_recovery_steps(spec, crash_at):
    """How many I/O steps does recovery itself perform after this crash?"""
    stack = crashed_stack(spec, crash_at)
    meter = FaultInjector(plan=FaultPlan())  # counts, injects nothing
    stack.restart(recovery_injector=meter)
    return meter.step_count


@pytest.mark.parametrize("name,crash_at", CASES)
class TestRecoveryIdempotence:
    def test_recovery_survives_crashing_at_each_of_its_own_steps(
        self, name, crash_at
    ):
        spec = scenarios.get(name)
        if crash_at is None:
            crash_at = crash_step_with_undo_work(spec)

        reference_stack, reference = recover_uninterrupted(spec, crash_at)
        reference_state = read_state(reference.storage)
        recovery_steps = count_recovery_steps(spec, crash_at)
        assert recovery_steps > 0, "recovery performed no I/O to crash"

        for step in range(1, recovery_steps + 1):
            stack = crashed_stack(spec, crash_at)
            injector = FaultInjector(plan=FaultPlan(crash_at=step))
            # The reboot loop: recovery may die mid-flight repeatedly;
            # each retry runs over whatever the previous attempt left.
            attempts = 0
            while True:
                attempts += 1
                assert attempts <= recovery_steps + 2, (
                    f"recovery of {name} crash@{crash_at} stuck in a"
                    f" reboot loop when crashed at its own step {step}"
                )
                try:
                    system = stack.restart(recovery_injector=injector)
                    break
                except CrashPoint:
                    injector = None  # second attempt runs uninterrupted

            final = read_state(system.storage)
            assert final == reference_state, (
                f"{name}: crashing recovery at its own step {step}"
                f" diverged from uninterrupted recovery"
            )
            report = evaluate_recovery(
                system, stack.intent, stack.durable_acks,
                label=f"{name} recovery-crash@{step}",
            )
            check_idempotent(system, report)
            assert report.ok, report.describe()

    def test_interrupted_then_completed_recovery_passes_oracles(
        self, name, crash_at
    ):
        """Spot-check the whole oracle battery after a double-crash at
        the *last* recovery step — the point where the most healing work
        is at risk of being half-applied."""
        spec = scenarios.get(name)
        if crash_at is None:
            crash_at = crash_step_with_undo_work(spec)
        recovery_steps = count_recovery_steps(spec, crash_at)

        stack = crashed_stack(spec, crash_at)
        injector = FaultInjector(plan=FaultPlan(crash_at=recovery_steps))
        try:
            system = stack.restart(recovery_injector=injector)
        except CrashPoint:
            system = stack.restart()
        report = evaluate_recovery(
            system, stack.intent, stack.durable_acks,
            label=f"{name} recovery-crash@last",
        )
        check_idempotent(system, report)
        assert report.ok, report.describe()
