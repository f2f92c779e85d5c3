"""Statistics and the piecewise combination of rounds."""

from perf import report, stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.50) == 50
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile([7], 0.99) == 7


def test_late_early_ratio_compares_last_and_first_deciles():
    assert stats.late_early_ratio([1.0] * 50 + [3.0] * 50) == 3.0


def _round(latencies, segments, **extra):
    base = {
        "units": len(latencies), "clients": 1, "digest": "d", "failed": 0,
        "latencies_s": latencies, "segments_s": segments, "problems": [],
        "setups_s": [0.3, 0.2, 0.25], "counts": {}, "census": {},
        "end_to_end": {"peak_rss_mb": 10.0, "recovery_s": 0.5},
        "wall_s": sum(segments), "host_slowdown": 1.0,
    }
    base.update(extra)
    return base


def test_each_piece_of_work_counts_at_its_median_repetition():
    # A burst hit unit 1 in the first round and unit 3 in the second.
    one = _round([1.0, 9.0, 1.0, 1.0], [10.0, 2.0])
    two = _round([1.0, 1.0, 1.0, 9.0], [2.0, 10.0])
    three = _round([1.0, 1.0, 1.0, 1.0], [2.0, 2.0])
    combined = report.combine_rounds([one, two, three])
    assert combined["end_to_end"]["units_per_s"] == 4 / 4.0
    assert combined["end_to_end"]["latency_p99_ms"] == 1000.0
    assert combined["end_to_end"]["setup_s"] == 0.25
    assert combined["rounds"] == 3 and combined["latency_samples"] == 4


def test_a_cost_every_round_pays_stays():
    # A checkpoint lands on unit 2 in every round: it is not noise.
    rounds = [_round([1.0, 1.0, 5.0, 1.0], [2.0, 6.0]) for _ in range(3)]
    combined = report.combine_rounds(rounds)
    assert combined["end_to_end"]["latency_p99_ms"] == 5000.0
    assert combined["end_to_end"]["units_per_s"] == 4 / 8.0


def test_failures_and_problems_survive_the_combination():
    bad = _round([1.0, None], [1.0], failed=1, problems=["lost a write"])
    good = _round([1.0, 1.0], [1.0])
    combined = report.combine_rounds([good, bad])
    assert combined["failed"] == 1 and combined["failed_share"] == 0.5
    assert combined["problems"] == ["lost a write"]
