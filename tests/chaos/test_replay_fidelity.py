"""A replayed plan is judged exactly as the sweep that emitted it was.

The replay CLI and the sweeps share one ``run_plan``, one cluster judge
that picks the two-phase failover judgment from the plan itself, and one
``replay_command`` that carries the run options.  These tests replay
plans through ``repro.chaos.replay.main`` and demand the verdict line
match the in-process sweep run: same violations, same
``converged``/terminal status, and the judgment kind named on the line.
"""

from __future__ import annotations

import json
import shlex

import repro.cluster.scenarios  # noqa: F401  (registers the scenarios)
from repro.chaos import replay
from repro.chaos.faults import FaultPlan
from repro.chaos.mutations import undo_disabled
from repro.chaos.sweep import get, probe, replay_command
from repro.chaos.workflow import workflow_crash_sweep
from repro.cluster.site import TAKEOVER_GRACE, Site
from repro.cluster.sweep import takeover_death_sweep


def _replay(command, capsys):
    """Run a sweep-emitted replay command in process; (exit code, verdict)."""
    argv = shlex.split(command)
    assert argv[:4] == [
        "PYTHONPATH=src", "python", "-m", "repro.chaos.replay"
    ]
    capsys.readouterr()
    code = replay.main(argv[4:])
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, verdict


def _first_vote(spec):
    return next(n for n, d in probe(spec).messages if d.endswith(":vote"))


class TestClusterFailoverJudgment:
    def test_takeover_sweep_plans_replay_to_the_same_verdict(self, capsys):
        spec = get("cluster_group_commit")
        result = takeover_death_sweep(spec, _first_vote(spec), limit=2)
        assert result.runs == 2 * len(spec.sites)
        for verdict in result.verdicts:
            code, line = _replay(
                replay_command(spec.name, verdict.plan), capsys
            )
            assert line["judgment"] == verdict.judgment == "failover"
            assert line["ok"] is verdict.ok is True and code == 0
            assert line["violations"] == verdict.all_violations
            assert line["converged"] is verdict.converged

    def test_replay_reports_takeover_liveness(self, capsys, monkeypatch):
        """``--kill-coordinator-at`` must hold the survivors to settling
        *before* the dead site restarts.  With survivor takeover knocked
        out the restart-everything-first judgment still passes (the
        reborn coordinator resolves its own group), so only the failover
        judgment can see the bug — on the CLI exactly as in the sweep."""

        def reborn_coordinator_only(self, sites, coordinator):
            return TAKEOVER_GRACE if coordinator == self.name else None

        monkeypatch.setattr(
            Site, "_takeover_threshold", reborn_coordinator_only
        )
        spec = get("cluster_group_commit")
        step = _first_vote(spec)
        code = replay.main([spec.name, "--kill-coordinator-at", str(step)])
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 1 and line["ok"] is False
        assert line["judgment"] == "failover"
        assert any("takeover-liveness" in v for v in line["violations"])
        # The same plan minus the kill mark is an ordinary crash plan.
        code = replay.main([spec.name, "--site-crash", "alpha", str(step)])
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0 and line["judgment"] == "cluster"


class TestRunOptionsTravelWithThePlan:
    def test_sharded_workflow_failure_replays_on_the_sharded_wal(self, capsys):
        spec = get("workflow_travel_crash")
        with undo_disabled():
            result = workflow_crash_sweep(
                spec, n_shards=2, stop_at_first=True
            )
            assert result.failures, "the mutation must be visible"
            artifact = result.failures[0]
            failed = result.verdicts[-1]
            assert artifact.replay.endswith(" --storage sharded --shards 2")
            code, line = _replay(artifact.replay, capsys)
        assert code == 1 and line["ok"] is False
        assert line["storage"] == "sharded"
        assert line["judgment"] == failed.judgment == "workflow"
        assert line["violations"] == artifact.violations
        # The reference oracles judge the sharded restart too (since the
        # steal_window scenario runs on both engines), so the first red
        # crash point can predate the execution: no status to resume to.
        assert line["status"] == (
            failed.status.value if failed.status else None
        )
        assert line["resumed"] is failed.resumed
        # Without the mutation the same command is green.
        code, line = _replay(artifact.replay, capsys)
        assert code == 0 and line["ok"] is True

    def test_transient_sweep_replay_carries_the_retry_budget(self, capsys):
        spec = get("retry_saga")
        step = probe(spec).steps_of_kind("log_flush")[0]
        plan = FaultPlan(fail_flush_at=frozenset([step]))
        command = replay_command(spec.name, plan, retry=3)
        assert command.endswith(" --retry 3")
        code, line = _replay(command, capsys)
        assert code == 0 and line["judgment"] == "recovery"
        out = capsys.readouterr().out
        assert "surfaced to the client" not in out  # absorbed, as swept
