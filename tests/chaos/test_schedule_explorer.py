"""Schedule exploration: recording, replay, minimization, coverage."""

from repro.chaos import scenarios
from repro.chaos.explorer import (
    ScheduleController,
    ScheduleExplorer,
    decode_choices,
    encode_choices,
    identity,
)
from repro.chaos.mutations import dependency_dropped
from repro.chaos.scenarios import live_violations
from repro.core.dependency import DependencyType


class TestScheduleController:
    def test_default_is_round_robin_and_records_it(self):
        controller = ScheduleController()
        assert controller.arrange(["a", "b", "c"]) == ["a", "b", "c"]
        assert controller.arrange(["a", "b"]) == ["a", "b"]
        assert controller.recorded == [(0, 1, 2), (0, 1)]

    def test_replay_reproduces_a_recording_exactly(self):
        seeded = ScheduleController(seed=7)
        first = [seeded.arrange(["a", "b", "c"]) for __ in range(4)]
        replay = ScheduleController(choices=seeded.recorded)
        second = [replay.arrange(["a", "b", "c"]) for __ in range(4)]
        assert first == second
        assert replay.recorded == seeded.recorded

    def test_same_seed_same_schedule(self):
        rounds = [["a", "b", "c"], ["a", "b"], ["a", "b", "c", "d"]]
        one = ScheduleController(seed=42)
        two = ScheduleController(seed=42)
        assert [one.arrange(r) for r in rounds] == [
            two.arrange(r) for r in rounds
        ]

    def test_replay_tolerates_arity_drift(self):
        """Minimization splices rounds in and out; a recorded permutation
        wider or narrower than the live round must still apply."""
        controller = ScheduleController(choices=[(2, 0, 1), (1, 0)])
        # Recorded arity 3, live arity 2: out-of-range index dropped.
        assert controller.arrange(["a", "b"]) == ["a", "b"]
        # Recorded arity 2, live arity 3: missing index appended in order.
        assert controller.arrange(["a", "b", "c"]) == ["b", "a", "c"]

    def test_rounds_past_the_recording_fall_back_to_identity(self):
        controller = ScheduleController(choices=[(1, 0)])
        assert controller.arrange(["a", "b"]) == ["b", "a"]
        assert controller.arrange(["a", "b"]) == ["a", "b"]


class TestChoiceEncoding:
    def test_round_trip(self):
        choices = [(1, 0), (0, 1, 2), (2, 1, 0)]
        assert decode_choices(encode_choices(choices)) == choices

    def test_empty(self):
        assert encode_choices([]) == ""
        assert decode_choices("") == []


def explore_deadlock_cascade(**kwargs):
    spec = scenarios.get("deadlock_cascade")

    def run_one(controller):
        stack = spec.build(schedule=controller)
        spec.drive(stack)
        return live_violations(stack)

    kwargs.setdefault("samples", 12)
    return ScheduleExplorer(run_one, **kwargs), run_one


class TestExploration:
    def test_clean_scenario_explores_clean(self, explorer_samples,
                                           explorer_depth):
        explorer, __ = explore_deadlock_cascade(
            samples=explorer_samples, depth=explorer_depth
        )
        result = explorer.explore()
        assert result.ok, "\n".join(
            f.describe() for f in result.failures
        )
        # Coverage accounting: baseline + systematic + sampled all ran.
        assert result.schedules_run == (
            1 + result.systematic_run + result.sampled_run
        )
        assert result.systematic_run > 0
        assert result.sampled_run == explorer_samples

    def test_dropped_dependency_is_surfaced_with_a_replayable_schedule(self):
        """Knock out AD edges: abort no longer cascades, so some schedule
        commits the dependent after its dependee aborted.  The explorer
        must catch it *and* hand back a schedule that replays it."""
        explorer, run_one = explore_deadlock_cascade()
        with dependency_dropped(DependencyType.AD):
            result = explorer.explore(stop_at_first=True)
            assert result.failures
            failure = result.failures[0]
            assert any("abort-dependency" in v for v in failure.violations)
            # The minimized schedule replays to the same class of failure
            # (replayed inside the mutation: it reproduces the run).
            replayed = run_one(
                ScheduleController(choices=decode_choices(failure.replay_arg()))
            )
            assert any("abort-dependency" in v for v in replayed)

    def test_minimization_reverts_inessential_rounds(self):
        """The dropped-AD failure already fails under round-robin, so the
        minimized counterexample must contain no essential deviations:
        every surviving round is the identity permutation."""
        explorer, __ = explore_deadlock_cascade()
        with dependency_dropped(DependencyType.AD):
            result = explorer.explore(stop_at_first=True)
        failure = result.failures[0]
        assert all(
            perm == identity(len(perm)) for perm in failure.choices
        ), failure.describe()

    def test_describe_names_the_deviating_rounds(self):
        explorer, __ = explore_deadlock_cascade()
        with dependency_dropped(DependencyType.AD):
            result = explorer.explore(stop_at_first=True)
        text = result.failures[0].describe()
        assert "schedule:" in text
        assert "rounds deviating" in text
