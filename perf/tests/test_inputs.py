"""Inputs are a pure function of the seed, and owe nothing to ``repro``."""

import ast
import os

import pytest

from perf import inputs


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    generate = inputs.GENERATORS[name]
    first = inputs.digest(generate(11, 120))
    assert inputs.digest(generate(11, 120)) == first
    assert inputs.digest(generate(12, 120)) != first


def test_a_longer_run_extends_a_shorter_one():
    # Scaling a workload down must not reshuffle it.
    assert inputs.atomic_seq(5, 300)[:30] == inputs.atomic_seq(5, 30)


def test_scripted_outcomes_do_not_depend_on_the_seed():
    for seed in (1, 2):
        units = inputs.extended_mix(seed, 600)
        assert sum(1 for _k, fails, _c in units if fails) == 40
        groups = inputs.cluster_2pc(seed, 400)
        assert sum(1 for _c, members in groups if len(members) == 3) == 100
        assert all(coordinator in dict(members) for coordinator, members in groups)


def test_zipf_is_skewed_and_the_seed_only_renames_counters():
    from collections import Counter

    def shape(seed):
        units = inputs.contended_zipf(seed, 2000)
        tally = Counter(index for unit in units for _w, index in unit)
        writes = [tuple(w for w, _i in unit) for unit in units]
        return sorted(tally.values(), reverse=True), writes

    counts, writes = shape(3)
    assert sum(counts[:26]) > 0.3 * sum(counts)  # the hottest tenth
    assert shape(4) == (counts, writes)  # same conflict structure


def test_generators_import_nothing_from_the_program():
    path = os.path.join(os.path.dirname(inputs.__file__), "inputs.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "repro" not in imported and "perf" not in imported
