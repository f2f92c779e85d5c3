"""Workflow crash sweeps: kill the site at every step, resume, judge.

The workflow engine's durability claim, attacked exhaustively:
for every registered workflow scenario and *every* numbered I/O step, a
power cut at that step followed by restart recovery and
``WorkflowEngine.recover()`` must resume the execution to the
scenario's expected terminal status — with the ACTA/log-replay oracle
battery green at the restart moment, the scenario's final-state checks
green, the fold oracle agreeing with the live engine, and no leaked
transactions.  Both storage engines are swept: the flat WAL and the
sharded segmented WAL; a differential battery then pins the two engines
to the same terminal story under the same fault plan.

The sweeps are exhaustive-by-accounting even at the quick budget (they
are sub-second); ``CHAOS_BUDGET=long`` widens the sharded sweeps to a
second shard count and the differential battery to every crash step.
"""

from __future__ import annotations

import pytest

from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get, names, probe, run_plan
from repro.chaos.workflow import workflow_crash_sweep

SCENARIOS = names("workflow")


class TestRegistry:
    def test_at_least_two_scenarios_registered(self):
        assert len(SCENARIOS) >= 2
        assert "workflow_travel_crash" in SCENARIOS
        assert "workflow_signal_timeout" in SCENARIOS
        assert all(get(name).kind == "workflow" for name in SCENARIOS)


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestProbes:
    """Clean runs (power cut only at the end) on both engines: the probe
    itself refuses a scenario whose clean run misses its terminal, and a
    run under the empty plan is judged like any other."""

    def test_flat_probe(self, scenario):
        assert probe(get(scenario)).step_count > 0
        outcome = run_plan(get(scenario), FaultPlan())
        assert outcome.ok
        assert outcome.status in get(scenario).expected_terminal

    def test_sharded_probe(self, scenario):
        assert probe(get(scenario), n_shards=2).step_count > 0
        outcome = run_plan(get(scenario), FaultPlan(), n_shards=2)
        assert outcome.ok
        assert outcome.status in get(scenario).expected_terminal


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestFlatSweep:
    def test_exhaustive_flat_sweep(self, scenario):
        result = workflow_crash_sweep(get(scenario))
        assert result.ok, result.describe()
        assert result.coverage_complete, result.describe()
        assert result.runs == result.total_steps
        # The sweep must actually exercise resume: mid-workflow crashes
        # leave a started execution behind for recovery to pick up.
        assert any(v.resumed for v in result.verdicts), result.describe()


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestShardedSweep:
    def test_exhaustive_sharded_sweep(self, scenario, long_budget):
        shard_counts = (2, 4) if long_budget else (2,)
        for n_shards in shard_counts:
            result = workflow_crash_sweep(get(scenario), n_shards=n_shards)
            assert result.ok, result.describe()
            assert result.coverage_complete, result.describe()
            assert any(v.resumed for v in result.verdicts), result.describe()


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestDifferential:
    """Same fault plan, both WALs: the terminal story must match."""

    def test_same_plan_same_terminal(self, scenario, long_budget):
        spec = get(scenario)
        # The step universes differ slightly between engines (the
        # segmented WAL numbers its own flushes), so sweep the shared
        # range; every resumed run on either engine must land on the
        # same expected terminal set, and whenever both engines resumed
        # under the same plan they must agree exactly.
        steps = range(1, 22) if long_budget else range(3, 22, 4)
        for step in steps:
            plan = FaultPlan(crash_at=step, label=f"diff@{step}")
            flat = run_plan(spec, plan)
            sharded = run_plan(spec, plan, n_shards=2)
            assert flat.ok, (step, flat.all_violations)
            assert sharded.ok, (step, sharded.all_violations)
            if flat.status is not None and sharded.status is not None:
                assert flat.status is sharded.status, (
                    f"step {step}: flat ended {flat.status},"
                    f" sharded ended {sharded.status}"
                )


class TestReplayObsExport:
    """``--metrics-out``/``--trace-out`` must work for workflow replays:
    the resumed engine is attached through the stack's ``on_resume``
    seam, so the artifacts carry the resumed half of the record stream
    on both storage engines."""

    def _replay(self, tmp_path, *argv):
        import json

        from repro.chaos import replay

        metrics = tmp_path / "metrics.json"
        spans = tmp_path / "spans.jsonl"
        code = replay.main([
            *argv,
            "--metrics-out", str(metrics),
            "--trace-out", str(spans),
        ])
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        exported = [
            json.loads(line) for line in spans.read_text().splitlines()
        ]
        return snapshot, exported

    def test_flat_replay_exports_workflow_metrics_and_spans(self, tmp_path):
        snapshot, spans = self._replay(
            tmp_path, "workflow_travel_crash", "--crash-at", "23"
        )
        assert any(
            key.startswith("workflow.") for key in snapshot["counters"]
        ), snapshot["counters"]
        workflow_spans = [s for s in spans if s["trace"] == "workflow"]
        assert workflow_spans, spans
        assert workflow_spans[0]["status"] == "completed"

    def test_sharded_replay_exports_workflow_metrics_and_spans(self, tmp_path):
        snapshot, spans = self._replay(
            tmp_path, "workflow_travel_sellout", "--crash-at", "25",
            "--storage", "sharded", "--shards", "2",
        )
        assert any(
            key.startswith("workflow.") for key in snapshot["counters"]
        ), snapshot["counters"]
        workflow_spans = [s for s in spans if s["trace"] == "workflow"]
        assert workflow_spans, spans
        assert workflow_spans[0]["status"] == "compensated"
