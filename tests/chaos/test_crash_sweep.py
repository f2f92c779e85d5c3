"""Exhaustive crash-point sweeps over the named scenarios.

These tests are the paper-facing guarantee: for the EX10 commit/abort
scenario and the checkpoint window, *every* numbered I/O step has been
crashed at, every page write torn, every log flush lied about, and every
semantic failpoint cut — and recovery passed the full oracle battery
each time.  Coverage is asserted by accounting, not by sampling: the
covered step set must equal ``{1..N}`` exactly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import scenarios
from repro.chaos.faults import LOG_FLUSH, PAGE_WRITE, FaultPlan
from repro.chaos.stack import ChaosStack
from repro.chaos.sweep import (
    ScenarioBrokenError,
    crash_sweep,
    probe,
    replay_command,
    run_plan,
)


class TestEx10Sweep:
    def test_every_crash_point_survived(self, keep_tail_modes):
        spec = scenarios.get("ex10_commit_abort")
        result = crash_sweep(spec, keep_tail_modes=keep_tail_modes)
        assert result.ok, result.describe()
        # Exhaustiveness by accounting: all numbered steps crashed at.
        assert result.total_steps > 0
        assert result.coverage_complete
        assert result.covered["crash"] == set(
            range(1, result.total_steps + 1)
        )

    def test_variant_families_cover_their_whole_universe(self):
        spec = scenarios.get("ex10_commit_abort")
        trace = probe(spec)
        result = crash_sweep(spec)
        assert result.ok, result.describe()
        # Torn writes at every page write, lost fsyncs at every flush.
        assert result.covered["torn"] == set(trace.steps_of_kind(PAGE_WRITE))
        assert result.covered["lost-fsync"] == set(
            trace.steps_of_kind(LOG_FLUSH)
        )
        # Every occurrence of every semantic failpoint was cut.
        expected_failpoints = {
            (name, nth)
            for name, count in trace.failpoints.items()
            for nth in range(1, count + 1)
        }
        assert expected_failpoints  # the scenario does hit failpoints
        assert result.covered["failpoint"] == expected_failpoints
        assert result.covered == result.universe

    def test_scenario_exercises_the_full_taxonomy(self):
        """EX10's step universe spans the whole fault-point taxonomy
        except group-commit enrollment (covered by the matrix tests)."""
        trace = probe(scenarios.get("ex10_commit_abort"))
        kinds = {step.kind for step in trace.steps}
        assert {"log_append", "log_flush", "pool_flush", "page_write",
                "page_sync"} <= kinds


class TestCheckpointWindowSweep:
    def test_every_crash_point_survived(self, keep_tail_modes):
        spec = scenarios.get("checkpoint_window")
        result = crash_sweep(spec, keep_tail_modes=keep_tail_modes)
        assert result.ok, result.describe()
        assert result.coverage_complete

    def test_window_actually_contains_the_dangerous_flush(self):
        """The scenario must flush uncommitted pages *after* truncation —
        otherwise it would not be testing the write-ahead rule at all."""
        trace = probe(scenarios.get("checkpoint_window"))
        kinds = [step.kind for step in trace.steps]
        last_pool_flush = len(kinds) - 1 - kinds[::-1].index("pool_flush")
        assert "page_write" in kinds[last_pool_flush:]
        # Truncation happened: the durable log is shorter than the work.
        assert trace.system.intent.baseline


class TestHarnessPlumbing:
    def test_probe_rejects_a_scenario_that_lies_about_its_state(self):
        spec = scenarios.ScenarioSpec(
            name="liar",
            description="declares a state its clean run never reaches",
            drive=_lying_drive,
        )
        with pytest.raises(ScenarioBrokenError):
            probe(spec)

    def test_run_plan_records_the_crash_it_injected(self):
        spec = scenarios.get("ex10_commit_abort")
        outcome = run_plan(spec, FaultPlan(crash_at=5))
        assert outcome.ok, outcome.oracle.describe()
        assert outcome.crash is not None
        assert outcome.crash.step == 5

    def test_completed_runs_still_face_a_power_cut(self):
        """A lost-fsync plan lets the run finish; the harness must still
        cut power afterwards, or the lie would never matter.  Losing the
        *final* flush makes the last commit's ack hollow — and the
        oracle, holding the system only to durable acks, still passes."""
        spec = scenarios.get("ex10_commit_abort")
        final_flush = probe(spec).steps_of_kind(LOG_FLUSH)[-1]
        outcome = run_plan(
            spec, FaultPlan(lose_fsync_at=frozenset([final_flush]))
        )
        assert outcome.crash is None  # the run completed
        assert outcome.system.injector.lied_fsyncs == 1
        assert len(outcome.system.durable_acks) < len(outcome.system.acks)
        assert outcome.ok, outcome.oracle.describe()

    def test_universal_fsync_lies_are_catastrophic_and_visible(self):
        """When *every* fsync is a lie, pages flushed under the WAL rule
        reach disk while the log never does — no protocol survives that
        device (the real-world fsyncgate failure).  The harness must
        surface it, not absorb it: the exact-state oracle fires."""
        spec = scenarios.get("ex10_commit_abort")
        flush_steps = probe(spec).steps_of_kind(LOG_FLUSH)
        outcome = run_plan(
            spec, FaultPlan(lose_fsync_at=frozenset(flush_steps))
        )
        assert outcome.crash is None
        assert outcome.system.injector.lied_fsyncs == len(flush_steps)
        assert outcome.system.durable_acks == []  # every ack was hollow
        assert not outcome.ok
        assert any("state" in v for v in outcome.oracle.violations)

    def test_replay_command_is_a_complete_recipe(self):
        plan = FaultPlan(crash_at=12, keep_tail=True, label="crash@12+tail")
        command = replay_command("ex10_commit_abort", plan)
        assert command.startswith(
            "PYTHONPATH=src python -m repro.chaos.replay ex10_commit_abort"
        )
        assert '"crash_at": 12' in command
        assert '"keep_tail": true' in command

    def test_replay_command_carries_the_run_options(self):
        """A plan alone is not the recipe: the retry budget and the
        storage engine the run was given must be on the command line."""
        plan = FaultPlan(fail_flush_at=frozenset([7]))
        assert replay_command("retry_saga", plan, retry=3).endswith(
            "' --retry 3"
        )
        assert replay_command(
            "workflow_travel_crash", FaultPlan(crash_at=16), n_shards=2
        ).endswith("' --storage sharded --shards 2")
        with pytest.raises(KeyError):
            replay_command("retry_saga", plan, nonsense=1)


def _run_replay(*args):
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.chaos.replay", *args],
        capture_output=True, text=True, env=env, cwd=repo_root,
    )


class TestReplayCli:
    def test_replay_reruns_a_plan_end_to_end(self):
        completed = _run_replay("ex10_commit_abort", "--crash-at", "5")
        assert completed.returncode == 0, completed.stderr
        assert "oracle OK" in completed.stdout

    def test_replay_lists_known_scenarios(self):
        completed = _run_replay("--list")
        assert completed.returncode == 0, completed.stderr
        assert "ex10_commit_abort" in completed.stdout
        assert "checkpoint_window" in completed.stdout


def _lying_drive(stack):
    rt = stack.runtime
    oids = {}

    def setup(tx):
        oids["a"] = yield tx.create(b"v0")

    rt.run(setup)
    stack.intent.expected_clean = {oids["a"].value: b"not what happened"}


class TestAckTruthfulness:
    def test_ack_with_durable_commit_record_is_durable(self):
        stack = ChaosStack()
        rt = stack.runtime

        def writer(tx):
            yield tx.create(b"v1")

        result = rt.run(writer)
        stack.storage.sync_log()
        stack.note_ack(result.tid)
        assert stack.durable_acks == [result.tid]

    def test_ack_over_lost_fsync_is_hollow(self):
        """If the device lied about the flush, the ack must not be
        classified durable — the oracle holds the system only to promises
        the hardware actually kept."""
        stack = ChaosStack(plan=FaultPlan(lose_fsync_at=frozenset(range(1, 100))))
        rt = stack.runtime

        def writer(tx):
            yield tx.create(b"v1")

        result = rt.run(writer)
        stack.storage.sync_log()  # lied about
        stack.note_ack(result.tid)
        assert stack.acks == [result.tid]
        assert stack.durable_acks == []
