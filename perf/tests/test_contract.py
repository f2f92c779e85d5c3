"""BENCHMARK.json says what the code does, within the contract's limits."""

import json
import os
import re
import shutil
import subprocess
import sys

import perf
from perf import report, run
from perf.workloads import CONTRACT, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(perf.__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_definitions_in_code():
    contract = _contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["perf"]
    assert contract["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in contract["workloads"]] == list(CONTRACT)
    for row in contract["workloads"]:
        assert row["why"] == WORKLOADS[row["name"]].why
    assert {
        row["name"]: (row["unit"], row["better"], row["bound"])
        for row in contract["end_to_end"]
    } == report.END_TO_END
    assert {
        row["name"]: row["unit"] for row in contract["per_layer"]
    } == report.PER_LAYER


def test_benchmark_json_is_within_the_contract_limits():
    contract = _contract()
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    names = (
        [row["name"] for row in contract["workloads"]]
        + [row["name"] for row in contract["end_to_end"]]
        + [row["name"] for row in contract["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(row["unit"]), row
        assert row["better"] in ("higher", "lower")
    for row in contract["end_to_end"]:
        assert 0 < row["bound"] <= 0.25
    for row in contract["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    setup = [row for row in contract["end_to_end"] if row["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    ]
    assert max(row["bound"] for row in contract["end_to_end"]) == 0.25


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perf"), tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    contract = _contract()
    command = [sys.executable if part == "python3" else part
               for part in contract["command"]]
    done = subprocess.run(
        command + ["--workload", "atomic_seq", "--seed", "1",
                   "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
