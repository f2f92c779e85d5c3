"""PR 21's checked mapping: every recorded step, from the parent's number
to this tree's.

PR 21 made an update one log record.  Every forward update used to append
twice (before image, after image); the second append is gone, and every
later step of the run is numbered one lower per update before it.  Undo
used to install and then append its compensation record; it appends
first.  Nothing else about a run may move.  This script shows that, run
by run, and re-derives every recorded step number through the mapping
instead of re-recording wholesale.  Two invocations::

    # 1. the parent checkout's src/ on the path: what the parent numbers
    PYTHONPATH=<parent>/src python tests/chaos/golden/remap.py \\
        dump parent_traces.json
    # 2. this tree: check, map the parent's goldens, compare (or --write)
    PYTHONPATH=src:. python tests/chaos/golden/remap.py \\
        check parent_traces.json --parent-golden <parent>/tests/chaos/golden

``dump`` runs every registered scenario's probes (and the cluster replay
smokes) and tags each ``log_append`` with what was appended — read off
the record's type byte, and whether an undo was running — so ``check``
knows which of the parent's steps are after images of forward updates.
``check`` then holds this tree's trace of the same run to the parent's
with exactly those steps removed (and says, step by step, where a run
differs otherwise: the abort paths of the small-pool scenarios), maps
each plan of the parent's golden files through the resulting step map,
and compares with the files in this directory.  ``map`` prints single
steps, for the numbers pinned in prose, tests and CI.

It uses nothing of ``repro`` that the two trees do not share.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import groupby
from pathlib import Path

import repro.chaos.scenarios  # noqa: F401  (registers the scenarios)
import repro.chaos.workflow  # noqa: F401
from repro.chaos.faults import LOG_APPEND, FaultPlan
from repro.chaos.sweep import get, names, probe, run_plan

try:
    import repro.chaos.cluster_scenarios  # noqa: F401
except ImportError:  # a tree from before the cluster harness left cluster/
    import repro.cluster.scenarios  # noqa: F401

GOLDEN = Path(__file__).parent
HEAL_AFTER = 16  # cluster_sweep's: heal_at is partition_at + this

# Record type bytes: the parent's two image records.
BEFORE, AFTER = 1, 2
# What merging a before- and an after-image record saves: one header
# (type, lsn, tid: 17 bytes) and one object id (8).
MERGE_SAVES = 25

SMOKE_SCENARIO = "cluster_group_commit"


# CI's cluster replay smokes: the step each names at the parent, its
# label in ``cluster_traces.json``, and its plan given where that step is.
SMOKES = {
    "drop": (34, "drop@{0}", lambda n: FaultPlan(drop_msg_at={n})),
    "partition": (30, "partition@{0}..{1}", lambda n: FaultPlan(
        partition_at=n, heal_at=n + HEAL_AFTER,
        partition_groups=(("alpha",), ("beta", "gamma")),
    )),
    "kill_coordinator": (38, "kill_coordinator@{0}", lambda n: FaultPlan(
        kill_coordinator_at=n
    )),
    "join": (35, "join delta@{0}", lambda n: FaultPlan(
        join_site_at=("delta", n)
    )),
    "leave": (38, "leave beta:gamma@{0}", lambda n: FaultPlan(
        leave_site_at=("beta", "gamma", n)
    )),
}


# ---------------------------------------------------------------------------
# tagging appends (both trees)
# ---------------------------------------------------------------------------

_undo_depth = 0


def _install_taps():
    """Tag every numbered append with its record's type byte and whether
    an undo was on the stack; remember which before image a forward
    after image completes."""
    from repro.storage import recovery, store
    from repro.storage.log import MemoryLogDevice

    def during_undo(function):
        def wrapper(*args, **kwargs):
            global _undo_depth
            _undo_depth += 1
            try:
                return function(*args, **kwargs)
            finally:
                _undo_depth -= 1

        return wrapper

    recovery.undo_updates = store.undo_updates = during_undo(
        recovery.undo_updates
    )
    store.LoggedUndo.undo_to = during_undo(store.LoggedUndo.undo_to)
    append = MemoryLogDevice.append

    def tapped(self, raw):
        append(self, raw)
        injector = self.injector
        if injector is None or not injector.armed:
            return
        tags = injector.__dict__.setdefault("_tags", {})
        number, rtype = injector.step_count, raw[0]
        tag = {"type": rtype, "undo": _undo_depth > 0, "bytes": len(raw)}
        if rtype == BEFORE:
            self._open_update = number
        elif rtype == AFTER and not tag["undo"]:
            tag["completes"] = self._open_update
        tags[number] = tag

    MemoryLogDevice.append = tapped


def _observe(system):
    tags = system.injector.__dict__.get("_tags", {})
    observed = {
        "trace": [
            [step.number, step.kind, step.detail, tags.get(step.number)]
            for step in system.injector.trace
        ],
    }
    fabric = getattr(system, "fabric", None)
    if fabric is not None:
        observed["delivery_log"] = [list(e) for e in fabric.delivery_log]
    return observed


def _wedge(spec, plan=None):
    return next(
        n for n, d in probe(spec, plan).messages if d.endswith(":vote")
    )


def runs(step_maps=None):
    """Every run a recorded number comes from, as ``(key, thunk)``:
    single-site and workflow probes, and per cluster scenario the
    healthy probe, the probe under the takeover sweep's wedge, the probe
    under the blackout — and the five smokes, run to their verdicts.
    ``step_maps`` (this tree only) moves the planned steps."""
    for name in names("single-site"):
        yield f"single/{name}", lambda n=name: probe(get(n)).system
    for name in names("workflow"):
        for shards in (None, 2, 4):
            key = f"workflow/{name}/" + (
                "flat" if shards is None else f"shards={shards}"
            )
            yield key, lambda n=name, s=shards: probe(
                get(n), n_shards=s
            ).system
    blackout = FaultPlan(drop_msg_kinds=frozenset({"decision"}))
    for name in names("cluster"):
        yield f"cluster/{name}/healthy", lambda n=name: probe(get(n)).system
        yield f"cluster/{name}/wedge", lambda n=name: probe(
            get(n), FaultPlan(kill_coordinator_at=_wedge(get(n)))
        ).system
        yield f"cluster/{name}/blackout", lambda n=name: probe(
            get(n), blackout
        ).system
    healthy = (step_maps or {}).get(f"cluster/{SMOKE_SCENARIO}/healthy")
    for label, (step, __, plan) in SMOKES.items():
        yield f"smoke/{label}", lambda p=plan(
            healthy[step] if healthy else step
        ): run_plan(get(SMOKE_SCENARIO), p).system


def dump(path):
    _install_taps()
    Path(path).write_text(json.dumps(
        {key: _observe(thunk()) for key, thunk in runs()},
        separators=(",", ":"), sort_keys=True,
    ) + "\n")


# ---------------------------------------------------------------------------
# the mapping (this tree)
# ---------------------------------------------------------------------------


def _removed(step):
    tag = step[3]
    return bool(tag) and tag["type"] == AFTER and not tag["undo"]


def _shape(number, kind, detail):
    """What must not move: the kind, and the detail unless it is an
    append's size (checked apart)."""
    return (kind, "" if kind == LOG_APPEND else detail)


def predicted_trace(parent):
    """The parent's trace with forward after images removed, renumbered;
    merged updates carry their predicted size."""
    merged = {
        step[3]["completes"]: step[3]["bytes"]
        for step in parent if _removed(step)
    }
    kept = [step for step in parent if not _removed(step)]
    predicted = []
    for index, (number, kind, detail, tag) in enumerate(kept, start=1):
        if number in merged:
            detail = f"bytes={tag['bytes'] + merged[number] - MERGE_SAVES}"
        predicted.append((index, kind, detail))
    return predicted, {step[0]: i for i, step in enumerate(kept, start=1)}


def _rank_map(parent_kept, ours):
    """Where order moved: the k-th step of a kind there is the k-th of
    that kind here.  ``None`` unless the kinds count out the same."""
    def by_kind(steps):
        ranked = {}
        for number, kind, *__ in steps:
            ranked.setdefault(kind, []).append(number)
        return ranked

    theirs, mine = by_kind(parent_kept), by_kind(ours)
    if {k: len(v) for k, v in theirs.items()} != {
        k: len(v) for k, v in mine.items()
    }:
        return None
    return {
        old: new
        for kind in theirs
        for old, new in zip(theirs[kind], mine[kind])
    }


def compare(key, parent, ours, out):
    """Hold ``ours`` to the prediction from ``parent``; returns the step
    map (parent number -> ours; removed steps absent; ``None`` if there
    is none) and whether any step changed places."""
    predicted, step_map = predicted_trace(parent)
    removed = sum(map(_removed, parent))
    ours = [tuple(step[:3]) for step in ours]
    line = (
        f"{key}: {len(parent)} steps at the parent, {removed} forward"
        f" after images removed, {len(predicted)} predicted,"
        f" {len(ours)} observed"
    )
    if ours == predicted:
        out(line + " — exact (sizes included)")
        return step_map, False
    if [_shape(*s) for s in ours] == [_shape(*s) for s in predicted]:
        sizes = [
            (p, o) for p, o in zip(predicted, ours) if p != o
        ]
        out(line + f" — steps exact, {len(sizes)} append sizes differ:")
        for p, o in sizes:
            out(f"    step {o[0]}: predicted {p[2]}, observed {o[2]}")
        return step_map, False
    # Order moved somewhere: say exactly where.
    first = next(
        i for i, (p, o) in enumerate(zip(predicted, ours))
        if _shape(*p) != _shape(*o)
    )
    last = next(
        i for i, (p, o) in enumerate(zip(reversed(predicted), reversed(ours)))
        if _shape(*p) != _shape(*o)
    )
    out(line + " — MOVED between:")
    out("    predicted: " + " ".join(
        f"{n}:{k}" for n, k, __ in predicted[first: len(predicted) - last]
    ))
    out("    observed:  " + " ".join(
        f"{n}:{k}" for n, k, __ in ours[first: len(ours) - last]
    ))
    kept = [step for step in parent if not _removed(step)]
    ranked = _rank_map(kept, ours)
    if ranked is None:
        out("    kinds do not count out the same: NO MAP")
        return None, True
    out("    same steps of every kind; mapped kind by kind, in order")
    return ranked, True


_STEP_FIELDS = ("crash_at", "torn_page_at", "partition_at",
                "kill_coordinator_at")
_STEP_SETS = ("lose_fsync_at", "fail_flush_at", "drop_msg_at", "dup_msg_at",
              "delay_msg_at")
_STEP_LAST = ("site_crash_at", "join_site_at", "leave_site_at")


def map_plan(plan, step_of, base_of=None):
    """A golden plan with every step it names moved through ``step_of``
    (``base_of`` for the wedge under a takeover plan's second kill);
    ``None`` if it names a removed step."""
    mapped = dict(plan)
    try:
        for name in _STEP_FIELDS:
            if name in plan:
                lookup = (
                    base_of if base_of and name == "kill_coordinator_at"
                    else step_of
                )
                mapped[name] = lookup[plan[name]]
        for name in _STEP_SETS:
            if name in plan:
                mapped[name] = sorted(step_of[n] for n in plan[name])
        for name in _STEP_LAST:
            if name in plan:
                mapped[name] = plan[name][:-1] + [step_of[plan[name][-1]]]
    except KeyError:
        return None
    if "heal_at" in plan:
        mapped["heal_at"] = mapped["partition_at"] + HEAL_AFTER
    if "@" in plan.get("label", ""):
        kind, __, rest = plan["label"].partition("@")
        number = rest.removesuffix("+tail")
        mapped["label"] = (
            f"{kind}@{step_of[int(number)]}" + rest[len(number):]
        )
    return mapped


def _in_step_order(plans):
    """The same plans as a sweep lists them where steps changed places:
    dimension after dimension as before, each in step order."""
    def dimension(plan):
        return plan["label"].split("@")[0], plan.get("keep_tail", False)

    def step(plan):
        return int(plan["label"].split("@")[1].removesuffix("+tail"))

    ordered = []
    for (kind, __), group in groupby(plans, key=dimension):
        group = list(group)
        ordered += sorted(group, key=step) if "@" in group[0]["label"] else group
    return ordered


def map_goldens(parent_dir, step_maps, moved, out):
    """The parent's three plan files under the step maps."""
    single = json.loads((parent_dir / "single_site.json").read_text())
    for entry, scenarios in single.items():
        for name, plans in scenarios.items():
            step_of = step_maps[f"single/{name}"]
            mapped = [map_plan(p, step_of) for p in plans]
            kept = [p for p in mapped if p is not None]
            if f"single/{name}" in moved:
                kept = _in_step_order(kept)
            out(f"{entry}/{name}: {len(plans)} plans at the parent,"
                f" {len(plans) - len(kept)} named a removed step,"
                f" {len(kept)} mapped")
            scenarios[name] = kept
    workflow = json.loads((parent_dir / "workflow.json").read_text())
    for entry, scenarios in workflow.items():
        for key, plans in scenarios.items():
            step_of = step_maps[f"workflow/{key}"]
            kept = [
                p for p in (map_plan(p, step_of) for p in plans)
                if p is not None
            ]
            out(f"{entry}/{key}: {len(plans)} plans at the parent,"
                f" {len(plans) - len(kept)} named a removed step,"
                f" {len(kept)} mapped")
            scenarios[key] = kept
    cluster = json.loads((parent_dir / "cluster.json").read_text())
    for entry, scenarios in cluster.items():
        run = {"takeover_death_sweep": "wedge",
               "release_blackout_sweep": "blackout"}.get(entry, "healthy")
        for name, golden in scenarios.items():
            step_of = step_maps[f"cluster/{name}/{run}"]
            base_of = (
                step_maps[f"cluster/{name}/healthy"]
                if run == "wedge" else None
            )
            mapped = [map_plan(p, step_of, base_of) for p in golden["plans"]]
            assert None not in mapped, (entry, name)  # messages never go
            out(f"{entry}/{name}: {len(mapped)} plans, all mapped")
            golden["plans"] = mapped
    return {"single_site.json": single, "workflow.json": workflow,
            "cluster.json": cluster}


def _dumps(golden):
    return json.dumps(golden, separators=(",", ":"), sort_keys=True) + "\n"


def map_cluster_traces(parent, step_maps):
    """``cluster_traces.json`` as the parent's runs predict it."""
    healthy = step_maps[f"cluster/{SMOKE_SCENARIO}/healthy"]
    golden = {
        name: {"healthy": f"cluster/{name}/healthy"}
        for name in names("cluster")
    }
    for label, (step, form, __) in SMOKES.items():
        now = healthy[step]
        golden[SMOKE_SCENARIO][form.format(now, now + HEAL_AFTER)] = (
            f"smoke/{label}"
        )
    for name, cases in golden.items():
        for label, key in cases.items():
            predicted, step_of = predicted_trace(parent[key]["trace"])
            cases[label] = {
                "trace": [list(step) for step in predicted],
                # A delivery made with the injector disarmed has no number.
                "delivery_log": [
                    [step_of.get(entry[0]), *entry[1:]]
                    for entry in parent[key]["delivery_log"]
                ],
            }
    return golden


def check(parent_path, parent_golden, write, out=print):
    parent = json.loads(Path(parent_path).read_text())
    out("== traces: this tree's run against the parent's, after images of"
        " forward updates removed ==")
    step_maps, moved, ours = {}, set(), {}

    def hold(key, thunk):
        ours[key] = _observe(thunk())
        step_maps[key], changed_places = compare(
            key, parent[key]["trace"], ours[key]["trace"], out
        )
        if changed_places:
            moved.add(key)

    for key, thunk in runs():
        if not key.startswith("smoke/"):
            hold(key, thunk)
    # The wedge itself is a step of the healthy run: it must be where
    # the map says.
    for name in names("cluster"):
        was = _wedge_of(parent[f"cluster/{name}/healthy"]["trace"])
        now = _wedge_of(ours[f"cluster/{name}/healthy"]["trace"])
        assert step_maps[f"cluster/{name}/healthy"][was] == now, name
    for key, thunk in runs(step_maps):
        if key.startswith("smoke/"):
            hold(key, thunk)
    out("")
    out("== deliveries: (src, dst, kind, action) sequences ==")
    for key in sorted(ours):
        if "delivery_log" not in ours[key]:
            continue
        theirs = [e[1:] for e in parent[key]["delivery_log"]]
        mine = [e[1:] for e in ours[key]["delivery_log"]]
        out(f"{key}: {len(mine)} deliveries,"
            f" {'unchanged' if theirs == mine else 'CHANGED'}")
    if any(step_map is None for step_map in step_maps.values()):
        out("a run has no step map: stopping")
        return 1
    out("")
    out("== plans: the parent's golden files under the step maps ==")
    mapped = map_goldens(Path(parent_golden), step_maps, moved, out)
    mapped["cluster_traces.json"] = map_cluster_traces(parent, step_maps)
    out("")
    out("== golden files ==")
    status = 0
    for name, golden in mapped.items():
        text = _dumps(golden)
        if write:
            (GOLDEN / name).write_text(text)
            out(f"{name}: written")
        elif (GOLDEN / name).read_text() == text:
            out(f"{name}: the committed file IS the parent's, mapped")
        else:
            out(f"{name}: DIFFERS from the parent's, mapped")
            status = 1
    return status


def _wedge_of(trace):
    return next(
        number for number, kind, detail, *__ in trace
        if detail.endswith(":vote")
    )


def map_steps(parent_path, key, steps, out=print):
    """Where single steps of run ``key`` (a probe, as ``check`` names
    them) went."""
    parent = json.loads(Path(parent_path).read_text())
    ours = _observe(dict(runs())[key]())
    step_of, __ = compare(
        key, parent[key]["trace"], ours["trace"], lambda line: None
    )
    for step in steps:
        out(f"{key}: parent step {step} -> {step_of.get(step, 'removed')}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("dump").add_argument("path")
    checking = commands.add_parser("check")
    checking.add_argument("path")
    checking.add_argument("--parent-golden", required=True)
    checking.add_argument("--write", action="store_true")
    mapping = commands.add_parser("map")
    mapping.add_argument("path")
    mapping.add_argument("key")
    mapping.add_argument("steps", nargs="+", type=int)
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.path)
    if args.command == "map":
        return map_steps(args.path, args.key, args.steps)
    return check(args.path, args.parent_golden, args.write)


if __name__ == "__main__":
    sys.exit(main())
