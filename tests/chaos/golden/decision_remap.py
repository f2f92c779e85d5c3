"""The commit decision's checked mapping: the recorded cluster traces,
from the parent's recording to this tree's, and why each entry moved.

A coordinator's commit :class:`~repro.storage.log.DecisionRecord` used
to name every remote member; it now names only those that had not
acknowledged the decision when it was sealed (the first ACK seals it,
so a two-site group names none and a three-site group one).  The
prediction, written down before anything was re-recorded: no step is
added, removed or renumbered, no message and no delivery changes, and
the only details that move are the ``log_append bytes=`` of commit
decision appends, each smaller by exactly the encoded names it dropped
(a name is packed as a 4-byte length and its UTF-8 bytes).

``check`` runs every case of ``tests/chaos/test_step_traces.py`` and the
three planned groups of ``tests/cluster/test_fault_free.py`` in this
tree, noting at each commit decision append the names it dropped; it
grows each such append back by those names and requires the result to
be the parent's recording — the golden file (or ``--parent``) entry by
entry, and the parent's ``PLANNED_STEPS`` / ``PLANNED_DELIVERIES`` by
digest — and every entry that moved to be such an append.  ``--write`` then
re-records ``cluster_traces.json`` and prints the new ``PLANNED_STEPS``.
From this tree's root::

    PYTHONPATH=src:. python tests/chaos/golden/decision_remap.py check
    PYTHONPATH=src:. python tests/chaos/golden/decision_remap.py check --write
    # after the re-record, against the parent's copy of the file
    PYTHONPATH=src:. python tests/chaos/golden/decision_remap.py check \\
        --parent <parent>/tests/chaos/golden/cluster_traces.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from unittest.mock import patch

from repro.chaos.cluster_scenarios import planned_cluster
from repro.chaos.faults import FaultPlan
from repro.cluster.site import Site
from tests.chaos import test_step_traces as traces
from tests.cluster import test_fault_free as fault_free
from tests.cluster.test_round_cost import commit_groups


# ``test_fault_free.PLANNED_STEPS`` as the parent numbered it.
PARENT_PLANNED_STEPS = (180, "a85b8e70dbbb5d19")


def _encoded(name):
    return 4 + len(name.encode("utf-8"))


class _Drops:
    """Step number of each commit decision append -> the names the
    decision no longer carries (its acknowledged remote members)."""

    def __init__(self):
        self.at = {}

    def __enter__(self):
        real = Site._log_commit_decision
        drops = self.at

        def noted(site, g):
            trace = site.injector.trace
            before = len(trace)
            real(site, g)
            step = next(s for s in trace[before:] if s.kind == "log_append")
            drops[step.number] = sorted(
                s for s in g.members if s != site.name and s in g.acks
            )

        self._patch = patch.object(Site, "_log_commit_decision", noted)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


def _grown_back(trace, drops):
    """``trace`` with every commit decision append grown by the names
    it dropped: what the parent numbered, if the prediction holds."""
    parent = []
    for number, kind, detail in trace:
        if number in drops:
            assert kind == "log_append", (number, kind)
            size = int(detail.removeprefix("bytes="))
            detail = f"bytes={size + sum(map(_encoded, drops[number]))}"
        parent.append([number, kind, detail])
    return parent


def _check_case(name, label, parent, observed, drops):
    """Hold one run to the parent's; return how many entries moved."""
    assert observed["delivery_log"] == parent["delivery_log"], (name, label)
    assert len(observed["trace"]) == len(parent["trace"]), (name, label)
    assert _grown_back(observed["trace"], drops) == parent["trace"], (
        name, label,
    )
    moved = [
        got for want, got in zip(parent["trace"], observed["trace"])
        if want != got
    ]
    # Every entry that moved is a decision append that dropped a name.
    assert all(number in drops and drops[number] for number, *__ in moved)
    return len(moved)


def check(parent_path, write):
    parent = json.loads(Path(parent_path).read_text())
    for name, label in traces._cases():
        with _Drops() as drops:
            observed = traces._run(name, label)
        moved = _check_case(name, label, parent[name][label], observed, drops.at)
        print(f"{name} [{label}]: {moved} decision appends moved,"
              f" {len(drops.at)} logged")
    with _Drops() as drops:
        cluster = planned_cluster(FaultPlan())
        commit_groups(cluster, 3)
    trace = [
        [s.number, s.kind, s.detail] for s in cluster.injector.trace
    ]
    lines = [f"{n} {k} {d}" for n, k, d in _grown_back(trace, drops.at)]
    assert fault_free._digest(lines) == PARENT_PLANNED_STEPS
    assert fault_free._digest(
        repr(entry) for entry in cluster.fabric.delivery_log
    ) == fault_free.PLANNED_DELIVERIES
    steps = fault_free._digest(f"{n} {k} {d}" for n, k, d in trace)
    print(f"test_fault_free: PLANNED_STEPS {PARENT_PLANNED_STEPS} -> {steps}"
          f" (the test holds {fault_free.PLANNED_STEPS});"
          " PLANNED_DELIVERIES unchanged")
    if write:
        traces.record()
        print(f"re-recorded {traces.GOLDEN}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["check"])
    parser.add_argument("--parent", default=traces.GOLDEN)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    check(args.parent, args.write)


if __name__ == "__main__":
    sys.exit(main())
