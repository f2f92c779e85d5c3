"""Every workload end to end at 1% scale, verification on, in seconds."""

import json

import pytest

from perf import report
from perf.round import run_round
from perf.workloads import WORKLOADS

SCALE = 0.01


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two untraced + traced pairs of every workload, same seed."""
    out_dir = str(tmp_path_factory.mktemp("perf_out"))
    runs = {}
    for name in WORKLOADS:
        pairs = []
        for _ in range(2):
            untraced = run_round(name, 5, traced=False, scale=SCALE, out_dir=out_dir)
            traced = run_round(name, 5, traced=True, scale=SCALE, out_dir=out_dir)
            pairs.append((untraced, traced))
        runs[name] = pairs
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_verify_and_nothing_fails(smoke, name):
    for untraced, traced in smoke[name]:
        for result in (untraced, traced):
            assert result["problems"] == []
            assert result["failed"] == 0
            assert result["latency_samples"] == result["units"]
            assert all(value > 0 for key, value in result["end_to_end"].items()
                       if key != "failed_share")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_runs_agree_exactly_on_every_count(smoke, name):
    (u1, t1), (u2, t2) = smoke[name]
    assert u1["digest"] == u2["digest"] == t1["digest"]
    assert u1["counts"] == u2["counts"]
    first = report.per_layer_metrics(u1, t1, 1.0)
    second = report.per_layer_metrics(u2, t2, 1.0)
    for metric in report.EXACT:
        assert first[metric] == second[metric], metric


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_shares_sum_to_one_and_spans_are_written(smoke, name):
    _untraced, traced = smoke[name][0]
    shares = sum(row["share"] for row in traced["layers"].values())
    assert abs(shares - 1.0) < 0.01
    with open(traced["trace_file"], encoding="utf-8") as handle:
        document = json.load(handle)
    assert len(document["units"]) == traced["units"]
    assert all(unit["end"] >= unit["start"] for unit in document["units"])
    assert any(unit["calls"] for unit in document["units"])


def test_each_layer_shows_only_where_it_should(smoke):
    def metric(name, key):
        untraced, traced = smoke[name][0]
        return report.per_layer_metrics(untraced, traced, 1.0)[key]

    for name in WORKLOADS:
        sharded = metric(name, "core.sharded.self_us_per_unit")
        sent = metric(name, "net.fabric.sent_per_unit")
        syncs = metric(name, "device.syncs_per_unit")
        assert (sharded > 0) == (name == "sharded_cross")
        assert (sent > 0) == (name == "cluster_2pc")
        assert (syncs > 0) == (name == "durable_wal")
    assert metric("atomic_seq", "core.locks.blocks_per_unit") == 0
    assert metric("contended_zipf", "core.locks.blocks_per_unit") > 0
    assert metric("extended_mix", "workflow.records_per_execution") > 0
    assert metric("extended_mix", "models.saga.p50_ms") > 0
    assert metric("durable_wal", "storage.pages.disk_reads_per_unit") > 0


def test_a_corrupted_output_is_caught(tmp_path):
    """Verification is live: lose one committed increment and it says so."""
    from perf.clients import Recorder
    from perf.hostclock import WallClock
    from perf.trace import Tracer
    from perf.workloads.atomic_seq import AtomicSeq

    clock = WallClock()
    workload = AtomicSeq(Tracer(), str(tmp_path), clock)
    workload.build()
    inputs = workload.generate(1, 40)
    workload.run(
        workload.prepare(inputs), Recorder(Tracer(), len(inputs), clock)
    )
    assert workload.verify(inputs, None) == []
    problems = workload.verify(inputs + [0], None)  # one increment "lost"
    assert problems and "counters differ" in problems[0]


def test_a_round_does_not_depend_on_the_interpreter_hash_seed(monkeypatch):
    """The program iterates sets of strings; the parent pins the hash seed
    of the interpreters it starts so call counts repeat exactly."""
    from perf import session

    calls = []
    for hash_seed in ("1", "2", "3"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        traced = session._child_round("contended_zipf", 5, True, 0.1)
        calls.append({
            layer: row["calls_per_unit"]
            for layer, row in traced["layers"].items()
        })
    assert calls[0] == calls[1] == calls[2]
