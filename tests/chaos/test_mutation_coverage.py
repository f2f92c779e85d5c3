"""Every mutation is run by some test: the first cut of the kill matrix.

A mutation proves a detector can see a bug only if some test runs the
detector under it.  This is a static scan: each public mutation in
``tests/chaos/mutations.py`` must be imported (``from
tests.chaos.mutations import name``) or named as an attribute
(``mutations.name``) by at least one other test module.  Which detector
kills which mutation, and how often, is the full matrix — still open.
"""

from __future__ import annotations

import ast
from pathlib import Path

import tests.chaos.mutations as mutations_module

TESTS = Path(__file__).resolve().parents[1]
MUTATIONS = Path(mutations_module.__file__).resolve()


def public_mutations(path=MUTATIONS):
    return {
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def used_mutations(paths):
    """Names taken from the mutations module by the modules at ``paths``."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == (
                "tests.chaos.mutations"
            ):
                used |= {alias.name for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "mutations"
            ):
                used.add(node.attr)
    return used


def unused_mutations(mutation_names, paths):
    return sorted(set(mutation_names) - used_mutations(paths))


def _test_modules():
    here = Path(__file__).resolve()
    return [
        path
        for path in sorted(TESTS.rglob("*.py"))
        if path.resolve() not in (here, MUTATIONS)
    ]


def test_every_mutation_is_run_by_some_test():
    names = public_mutations()
    assert len(names) >= 19
    assert unused_mutations(names, _test_modules()) == []


def test_a_mutation_no_test_runs_is_reported(tmp_path):
    user = tmp_path / "test_user.py"
    user.write_text(
        "from tests.chaos.mutations import undo_disabled\n"
        "import tests.chaos.mutations as mutations\n"
        "mutations.wal_gate_stuck()\n"
    )
    names = {"undo_disabled", "wal_gate_stuck", "never_run"}
    assert unused_mutations(names, [user]) == ["never_run"]
