"""Self-validation: the harness must *fail* when the system is broken.

A chaos harness that always passes proves nothing.  Each test here
disables exactly one correctness mechanism (in process, reversibly) and
asserts the matching oracle fires — establishing that the sweeps and
explorations in the rest of this suite are sensitive to the bug classes
they claim to cover.  The final test re-runs everything unmutated to
prove the detections above are caused by the mutations, not by flaky
oracles.
"""

import json
import shlex

import pytest

import repro.cluster.scenarios  # noqa: F401  (registers the scenarios)
from repro.chaos import replay, scenarios
from repro.chaos.explorer import ScheduleExplorer
from repro.chaos.mutations import (
    commit_logged_before_witness,
    delegation_unlogged,
    dependency_dropped,
    undo_disabled,
    wal_gate_stuck,
    wal_ordering_broken,
)
from repro.chaos.scenarios import live_violations
from repro.chaos.sweep import ScenarioBrokenError, crash_sweep, probe
from repro.cluster.sweep import release_blackout_sweep
from repro.core.dependency import DependencyType


class TestCrashSweepSensitivity:
    def test_disabled_undo_is_caught_by_the_state_oracle(self):
        """No undo phase: losers keep their effects after some crash.
        The sweep must find at least one such crash point and emit a
        complete, replayable failure artifact."""
        with undo_disabled():
            result = crash_sweep(
                scenarios.get("ex10_commit_abort"), stop_at_first=True
            )
        assert result.failures, (
            "sweep passed with recovery-undo disabled: the state oracle"
            " is not sensitive to surviving loser effects"
        )
        artifact = result.failures[0]
        assert any("state" in v for v in artifact.violations)
        # The artifact is a complete reproduction recipe.
        assert "repro.chaos.replay ex10_commit_abort" in artifact.replay
        payload = json.loads(artifact.to_json())
        assert payload["plan"]["crash_at"] == artifact.plan["crash_at"]
        assert payload["replay"] == artifact.replay

    def test_broken_wal_ordering_is_caught_in_the_checkpoint_window(self):
        """Pages flushed without forcing the log first: invisible while
        the full log can re-derive everything, fatal once a truncating
        checkpoint has discarded the history.  The checkpoint-window
        sweep must catch the un-attributable on-disk effects."""
        with wal_ordering_broken():
            result = crash_sweep(
                scenarios.get("checkpoint_window"), stop_at_first=True
            )
        assert result.failures, (
            "sweep passed with the write-ahead rule broken: the"
            " checkpoint-window scenario is not exercising it"
        )
        assert any(
            "state" in v or "durability" in v
            for v in result.failures[0].violations
        )

    def test_unlogged_delegation_is_caught_at_the_probe(self):
        """Delegation that never reaches the log mis-attributes updates
        on *every* path that replays it — including the clean run, whose
        delegated update gets undone with its delegator.  The probe's
        declared-state check refuses to sweep a scenario whose clean run
        is already wrong."""
        with delegation_unlogged():
            with pytest.raises(ScenarioBrokenError):
                probe(scenarios.get("ex10_commit_abort"))


class TestClusterSweepSensitivity:
    """The cluster sweeps can see a bug too: revert witness-confirmed
    release (a PR 9 review fix) and the matching sweep must go red."""

    def test_commit_logged_before_a_witness_is_a_dual_decision(self, capsys):
        spec = scenarios.get("cluster_group_commit")
        with commit_logged_before_witness():
            result = release_blackout_sweep(spec, limit=6)
            assert result.failures, (
                "sweep passed with the commit force-logged before any"
                " witness ack: the no-dual-decision oracle is not armed"
            )
            artifact = result.failures[0]
            assert any("no-dual-decision" in v for v in artifact.violations)
            assert artifact.judgment == "failover"
            # The artifact's one-line recipe reproduces the violation.
            argv = shlex.split(artifact.replay)[4:]
            assert replay.main(argv) == 1
            verdict = json.loads(
                capsys.readouterr().out.strip().splitlines()[-1]
            )
            assert verdict["violations"] == artifact.violations
        # Control: same sweep, same recipe, unmutated — all green.
        clean = release_blackout_sweep(spec, limit=6)
        assert clean.ok, clean.describe()
        assert clean.runs == result.runs
        assert replay.main(argv) == 0


class TestExplorerSensitivity:
    @pytest.mark.parametrize("dep_type,expected", [
        (DependencyType.AD, "abort-dependency"),
        (DependencyType.GC, "group-atomicity"),
    ])
    def test_dropped_edges_surface_as_acta_violations(self, dep_type,
                                                      expected):
        spec = scenarios.get("deadlock_cascade")

        def run_one(controller):
            stack = spec.build(schedule=controller)
            spec.drive(stack)
            return live_violations(stack)

        with dependency_dropped(dep_type):
            result = ScheduleExplorer(run_one, samples=10).explore(
                stop_at_first=True
            )
        assert result.failures, (
            f"exploration passed with {dep_type.name} edges silently"
            f" dropped: the ACTA oracle is not consulted"
        )
        assert any(
            expected in v for v in result.failures[0].violations
        ), result.failures[0].describe()


class TestControl:
    """The unmutated system passes the exact runs mutated above."""

    def test_ex10_sweep_clean_without_mutations(self):
        result = crash_sweep(scenarios.get("ex10_commit_abort"),
                             stop_at_first=True)
        assert result.ok, result.describe()

    def test_checkpoint_window_sweep_clean_without_mutations(self):
        result = crash_sweep(scenarios.get("checkpoint_window"),
                             stop_at_first=True)
        assert result.ok, result.describe()

    def test_deadlock_cascade_explores_clean_without_mutations(self):
        spec = scenarios.get("deadlock_cascade")

        def run_one(controller):
            stack = spec.build(schedule=controller)
            spec.drive(stack)
            return live_violations(stack)

        result = ScheduleExplorer(run_one, samples=10).explore()
        assert result.ok, "\n".join(f.describe() for f in result.failures)

    def test_mutations_restore_cleanly(self):
        """Every mutation context manager unwinds its patch."""
        from repro.storage.buffer import BufferPool
        from repro.storage.recovery import RecoveryManager

        undo_before = RecoveryManager._undo
        with undo_disabled():
            assert RecoveryManager._undo is not undo_before
        assert RecoveryManager._undo is undo_before

        with wal_ordering_broken():
            assert isinstance(BufferPool.__dict__["wal"], property)
        assert "wal" not in BufferPool.__dict__

        from repro.storage.log import WriteAheadLog

        force_before = WriteAheadLog.force
        with wal_gate_stuck():
            assert WriteAheadLog.force is not force_before
        assert WriteAheadLog.force is force_before

        from repro.cluster.site import Site

        decide_before = Site._decide
        with commit_logged_before_witness():
            assert Site._decide is not decide_before
        assert Site._decide is decide_before
