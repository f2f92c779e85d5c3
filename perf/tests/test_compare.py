"""compare.py's three verdicts and its exit status."""

import io
import json

from perf import compare
from perf.report import END_TO_END


def test_ok_worse_and_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.judge(steady, [v * 0.97 for v in steady], "higher", 0.10)[0] == "ok"
    assert compare.judge(steady, [v * 0.85 for v in steady], "higher", 0.10)[0] == "worse"
    assert compare.judge(steady, [v * 1.20 for v in steady], "lower", 0.10)[0] == "worse"
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0]
    assert compare.judge(noisy, noisy, "higher", 0.10)[0] == "unresolved"
    # Wide spread, but every run of B beats every run of A.
    assert compare.judge(noisy, [v * 2 for v in noisy], "higher", 0.10)[0] == "ok"


def _results(scale=1.0, failed_share=0.0):
    run = {
        "end_to_end": {name: 10.0 * scale for name in END_TO_END},
        "failed_share": failed_share,
    }
    return {"traced": False, "workloads": {"atomic_seq": [run, run, run]}}


def _exit_status(tmp_path, a, b):
    paths = []
    for label, document in (("a", a), ("b", b)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(document))
        paths.append(str(path))
    return compare.main(paths)


def test_identical_results_exit_zero(tmp_path, capsys):
    assert _exit_status(tmp_path, _results(), _results()) == 0
    assert "worse" not in capsys.readouterr().out


def test_any_new_failure_is_a_regression(tmp_path, capsys):
    assert _exit_status(tmp_path, _results(), _results(failed_share=0.001)) == 1
    assert "failed_share" in capsys.readouterr().out


def test_one_row_per_workload_and_metric():
    out = io.StringIO()
    compare.compare_end_to_end(_results(), _results(), out=out)
    rows = [line for line in out.getvalue().splitlines() if line.startswith("atomic_seq")]
    assert len(rows) == len(END_TO_END) + 1  # + failed_share


def test_exact_metrics_must_be_equal(tmp_path, capsys):
    from perf.report import EXACT

    def traced(steps):
        per_layer = dict.fromkeys(EXACT, 1)
        per_layer["runtime.steps_per_unit"] = steps
        return {"traced": True, "workloads": {
            "atomic_seq": [{"seed": 1, "per_layer": per_layer}],
        }}

    assert _exit_status(tmp_path, traced(3.0), traced(3.0)) == 0
    assert _exit_status(tmp_path, traced(3.0), traced(3.5)) == 1
    assert "runtime.steps_per_unit" in capsys.readouterr().out
