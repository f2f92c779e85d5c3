"""The free-space map's checked mapping: every recorded golden, from the
parent's recording to this tree's, and why each plan that moved moved.

A create used to find its page by walking the buffer pool's cached
frames in page-id order, counting a hit and setting the clock bit of
each, and saw no page the pool did not hold.  Now it asks the shard's
free-space map for the first page with room, cached or not, and pins
that one page; and a page counts its live bytes, so a page compaction
would make room on is no longer refused.  The prediction, written down
before anything was re-recorded: nothing the log says may move — the
same records appended in the same order with the same sizes, the same
flushes that commits and checkpoints force, the same failpoints, the
same messages, the same final state.  What may move is the page I/O
placement steers: which page a create fills, and so which frames the
clock evicts, which dirty pages reach disk and when (``page_write``
steps), the log forces those write-backs need (``log_flush`` steps made
by the write-ahead gate, *gate flushes* below) and how many dirty pages
a checkpoint finds (``pool_flush`` details).  Two invocations, from
this tree's root::

    # 1. the parent checkout's src/ first on the path: what it numbers
    PYTHONPATH=<parent>/src:. python tests/chaos/golden/placement_remap.py \\
        dump parent_placement.json
    # 2. this tree: check, derive the plan lists, compare (or --write)
    PYTHONPATH=src:. python tests/chaos/golden/placement_remap.py \\
        check parent_placement.json --parent-golden <parent>/tests

``dump`` runs every run a recorded number comes from (``remap.runs``:
the single-site and workflow probes, the cluster probes and CI's
cluster replay smokes) and tags each numbered step with whether the
write-ahead gate was forcing the log when it was taken; and it runs the
cache script of ``tests/storage/test_cache_golden.py``, adding a digest
of the log file it leaves.  ``check`` holds this tree's runs to the
parent's: the steps placement does not steer must be the parent's, in
order, details included; the steered ones are listed side by side.  The
unsteered steps give a step map, and each sweep's plan list is held to
it: a parent plan on an unsteered step must be in this tree's list
under its new number (the reason printed: how many steered steps now
come before it), a plan that is gone must have named a steered step at
the parent, and a plan that is new must name one here.  The cache
script's log must be byte-identical and its commit and checkpoint
flushes as many; every count placement steers is printed parent → here.
It uses nothing of ``repro`` that the two trees do not share.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest.mock import patch

from remap import GOLDEN, map_plan, runs

from repro.chaos import sweep as driver
from repro.chaos.faults import (
    LOG_FLUSH,
    PAGE_WRITE,
    POOL_FLUSH,
    FaultInjector,
    FaultPlan,
)
from repro.storage.buffer import BufferPool

CACHE_GOLDEN = GOLDEN.parents[1] / "storage" / "golden" / "cache_script.json"
# What the cache script may not move: the log, byte for byte, and the
# objects it leaves.
CACHE_KEPT = ("log_appends", "log_sha256", "state_sha256")
DEFAULTS = FaultPlan().to_dict()
SWEEPS = {
    "crash_sweep": lambda spec: driver.crash_sweep(
        spec, keep_tail_modes=(False, True)
    ),
    "transient_fault_sweep": driver.transient_fault_sweep,
}


# ---------------------------------------------------------------------------
# tagging the gate's flushes (both trees)
# ---------------------------------------------------------------------------

_forcing = 0


def _install_taps():
    """Remember, per injector, the numbers of the steps taken while a
    buffer pool was forcing the log ahead of a write-back."""
    force_log, next_step = BufferPool._force_log, FaultInjector._next

    def forcing(self, lsn):
        global _forcing
        _forcing += 1
        try:
            return force_log(self, lsn)
        finally:
            _forcing -= 1

    def numbered(self, kind, detail=""):
        if _forcing:
            self.__dict__.setdefault("_gated", set()).add(self.step_count + 1)
        return next_step(self, kind, detail)

    BufferPool._force_log = forcing
    FaultInjector._next = numbered


def _observe(system):
    gated = system.injector.__dict__.get("_gated", set())
    observed = {
        "trace": [
            [step.number, step.kind, step.detail, step.number in gated]
            for step in system.injector.trace
        ],
    }
    fabric = getattr(system, "fabric", None)
    if fabric is not None:
        observed["delivery_log"] = [list(e) for e in fabric.delivery_log]
    return observed


def _cache_run():
    from tests.storage.test_cache_golden import run_script

    with tempfile.TemporaryDirectory() as directory:
        observed = run_script(directory)
        log = (Path(directory) / "wal.log").read_bytes()
    observed["log_sha256"] = hashlib.sha256(log).hexdigest()
    return observed


def dump(path):
    _install_taps()
    observed = {key: _observe(thunk()) for key, thunk in runs()}
    observed["cache"] = _cache_run()
    Path(path).write_text(
        json.dumps(observed, separators=(",", ":"), sort_keys=True) + "\n"
    )


# ---------------------------------------------------------------------------
# the mapping (this tree)
# ---------------------------------------------------------------------------


def _steered(step):
    __, kind, __, gated = step
    return kind == PAGE_WRITE or (kind == LOG_FLUSH and gated)


def _shape(step):
    """What must not move of an unsteered step: its kind, and its
    detail unless it counts the dirty pages a checkpoint found."""
    __, kind, detail, __ = step
    return kind, "" if kind == POOL_FLUSH else detail


def _code(step):
    number, kind, detail, gated = step
    if kind == PAGE_WRITE:
        return f"{number}:W{detail.removeprefix('page=')}"
    if kind == LOG_FLUSH:
        return f"{number}:{'G' if gated else 'F'}"
    return f"{number}:{kind}"


def compare(key, parent, ours, out):
    """Hold ``ours`` to ``parent``: the step map over the unsteered
    steps (parent number -> ours), or ``None`` if one of them moved."""
    theirs = [step for step in parent if not _steered(step)]
    mine = [step for step in ours if not _steered(step)]
    line = f"{key}: {len(parent)} steps at the parent, {len(ours)} here"
    if [_shape(s) for s in theirs] != [_shape(s) for s in mine]:
        first = next(
            (i for i, (p, o) in enumerate(zip(theirs, mine))
             if _shape(p) != _shape(o)),
            min(len(theirs), len(mine)),
        )
        out(line + " — UNPREDICTED: an unsteered step moved, from the"
            f" {first + 1}th of {len(theirs)} at the parent")
        return None
    if [step[:3] for step in parent] == [step[:3] for step in ours]:
        out(line + " — exact")
    else:
        def count(trace, kind, gated=None):
            return sum(
                1 for s in trace
                if s[1] == kind and (gated is None or s[3] == gated)
            )

        out(line + f" — the {len(mine)} unsteered steps exact, in order;"
            f" page writes {count(parent, PAGE_WRITE)} →"
            f" {count(ours, PAGE_WRITE)}, gate flushes"
            f" {count(parent, LOG_FLUSH, True)} →"
            f" {count(ours, LOG_FLUSH, True)}"
            " (W page write, G gate flush, F any other flush):")
        out("    parent: " + " ".join(map(_code, parent)))
        out("    here:   " + " ".join(map(_code, ours)))
        for p, o in zip(theirs, mine):
            if p[2] != o[2]:
                out(f"    {p[1]} {p[0]} → {o[0]}: {p[2]} → {o[2]}")
    return {p[0]: o[0] for p, o in zip(theirs, mine)}


def _named(plan):
    """The step numbers a single-site plan names."""
    steps = [plan[name] for name in ("crash_at", "torn_page_at") if name in plan]
    for name in ("lose_fsync_at", "fail_flush_at"):
        steps += plan.get(name, [])
    return steps


def enumerate_plans(entry, name):
    """This tree's plan list: the sweep driver's, the run stubbed out."""
    plans = []

    def record(spec, plan, instrument=None, **options):
        plans.append({
            k: v for k, v in plan.to_dict().items() if v != DEFAULTS[k]
        })
        return driver.Verdict(scenario=spec.name, plan=plan, system=None)

    with patch.object(driver, "run_plan", record):
        SWEEPS[entry](driver.get(name))
    return plans


def map_single_site(parent_golden, parent, ours, step_maps, out):
    """Each plan list of ``single_site.json``, held to the step map: a
    run that did not move must enumerate the parent's list."""
    golden = json.loads(parent_golden.read_text())
    status = 0
    for entry, scenarios in golden.items():
        for name, plans in scenarios.items():
            key = f"single/{name}"
            derived = enumerate_plans(entry, name)
            if parent[key]["trace"] == ours[key]["trace"]:
                status |= derived != plans
                out(f"{entry}/{name}: {len(plans)} plans, "
                    + ("the parent's: the run did not move" if derived == plans
                       else "UNPREDICTED: the run did not move, its plans did"))
                continue
            steered = {s[0] for s in parent[key]["trace"] if _steered(s)}
            steered_here = {s[0] for s in ours[key]["trace"] if _steered(s)}
            step_of = step_maps[key]
            mapped = [map_plan(plan, step_of) for plan in plans]
            kept = [plan for plan in mapped if plan is not None]
            gone = [p for p, m in zip(plans, mapped) if m is None]
            new = [plan for plan in derived if plan not in kept]
            renumbered = [
                (p, m) for p, m in zip(plans, mapped)
                if m is not None and m != p
            ]
            ok = (
                [plan for plan in derived if plan in kept] == kept
                and all(set(_named(p)) & steered for p in gone)
                and all(set(_named(p)) & steered_here for p in new)
            )
            status |= not ok
            out(f"{entry}/{name}: {len(plans)} plans at the parent,"
                f" {len(kept)} on unsteered steps ({len(renumbered)}"
                f" renumbered), {len(gone)} named a steered step there,"
                f" {len(new)} name one here: {len(derived)}"
                + ("" if ok else " — UNPREDICTED"))
            for before, after in renumbered:
                step = _named(before)[0]
                out(f"    {before['label']} → {after['label']}:"
                    f" {_before(parent[key]['trace'], step)} →"
                    f" {_before(ours[key]['trace'], step_of[step])}"
                    " steered steps before it")
            if gone:
                out("    gone: " + ", ".join(p["label"] for p in gone))
            if new:
                out("    new:  " + ", ".join(p["label"] for p in new))
            scenarios[name] = derived
    return golden, status


def _before(trace, number):
    return sum(1 for step in trace if step[0] < number and _steered(step))


def check_cache(parent, ours, out):
    """The cache script: its log and objects kept, the rest listed."""
    status = 0
    for key in CACHE_KEPT:
        same = parent[key] == ours[key]
        status |= not same
        out(f"cache {key}: {'kept' if same else 'MOVED'}")
    flushes = [
        run["log_flushes"] - run["wal_forces"] for run in (parent, ours)
    ]
    status |= flushes[0] != flushes[1]
    out(f"cache flushes commits and checkpoints forced: {flushes[0]} →"
        f" {flushes[1]}")
    for key in sorted(set(ours) - set(CACHE_KEPT)):
        if parent[key] != ours[key]:
            out(f"cache {key} (steered): {parent[key]} → {ours[key]}")
    return status


def _dumps(golden):
    return json.dumps(golden, separators=(",", ":"), sort_keys=True) + "\n"


def check(parent_path, parent_tests, write, out=print):
    parent = json.loads(Path(parent_path).read_text())
    parent_tests = Path(parent_tests)
    _install_taps()
    out("== traces: this tree's runs against the parent's ==")
    step_maps, ours = {}, {}
    for key, thunk in runs():
        ours[key] = _observe(thunk())
        step_maps[key] = compare(
            key, parent[key]["trace"], ours[key]["trace"], out
        )
    status = int(any(step_map is None for step_map in step_maps.values()))
    for key in sorted(ours):
        if "delivery_log" in ours[key]:
            same = ours[key]["delivery_log"] == parent[key]["delivery_log"]
            status |= not same
            if not same:
                out(f"{key}: deliveries CHANGED")
    out("every delivery of every cluster run: unchanged, numbers included"
        if not status else "")
    if status:
        return status
    out("")
    out("== plans: single_site.json under the step maps ==")
    single, moved = map_single_site(
        parent_tests / "chaos" / "golden" / "single_site.json",
        parent, ours, step_maps, out,
    )
    status |= moved
    out("")
    out("== the cache script ==")
    cache = _cache_run()
    status |= check_cache(parent["cache"], cache, out)
    del cache["log_sha256"]
    out("")
    out("== golden files ==")
    files = {GOLDEN / "single_site.json": _dumps(single)}
    for name in ("workflow.json", "cluster.json", "cluster_traces.json"):
        files[GOLDEN / name] = (
            parent_tests / "chaos" / "golden" / name
        ).read_text()
    files[CACHE_GOLDEN] = json.dumps(cache, indent=1, sort_keys=True) + "\n"
    for path, text in files.items():
        name = path.relative_to(GOLDEN.parents[1])
        if write:
            path.write_text(text)
            out(f"{name}: written")
        elif path.read_text() == text:
            out(f"{name}: the committed file IS the mapping's")
        else:
            out(f"{name}: DIFFERS from the mapping's")
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("dump").add_argument("path")
    checking = commands.add_parser("check")
    checking.add_argument("path")
    checking.add_argument("--parent-golden", required=True,
                          help="the parent checkout's tests/ directory")
    checking.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.path)
    return check(args.path, args.parent_golden, args.write)


if __name__ == "__main__":
    sys.exit(main())
