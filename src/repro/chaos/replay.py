"""Replay chaos counterexamples from the command line.

Every failure artifact the sweeps or the schedule explorer produce
embeds a one-command recipe::

    PYTHONPATH=src python -m repro.chaos.replay ex10_commit_abort \\
        --plan '{"crash_at": 28}'

    PYTHONPATH=src python -m repro.chaos.replay cluster_group_commit \\
        --drop-at 28 --site-crash alpha 32

which re-runs the named scenario under exactly that fault plan (and/or
recorded schedule), prints the trace and the verdict, and exits non-zero
when the violation reproduces.  Scenarios of every kind — single-site,
durable workflow, cluster — resolve through the one registry in
:mod:`repro.chaos.sweep` and run through its one
:func:`~repro.chaos.sweep.run_plan`, so a replayed plan is judged exactly
as the sweep that emitted it judged it: a plan that kills the
coordinator gets the two-phase failover judgment, ``--storage sharded
--shards N`` puts a workflow scenario on the segmented WAL, ``--retry N``
attaches the retry budget (``--signal-at approve:qa`` overrides a
workflow's signal script).

Flags compose with ``--plan``: explicit flags override the JSON fields,
so ``--crash-at 27`` on an existing artifact probes the neighbouring
step without editing JSON.  The last line of output is always a
machine-readable JSON verdict (``{"scenario", "plan", "ok",
"violations", "judgment", ...}``) so CI and scripts can consume the
result without scraping prose.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

# Importing the scenario modules is what fills the registry.
import repro.chaos.cluster_scenarios  # noqa: F401
import repro.chaos.workflow  # noqa: F401
from repro.chaos.explorer import ScheduleController, decode_choices
from repro.chaos.faults import FaultPlan
from repro.chaos.scenarios import live_violations
from repro.chaos.sweep import get, names, run_plan
from repro.obs import ObservabilityKit


def _make_kit(args):
    """An ObservabilityKit when ``--metrics-out``/``--trace-out`` ask for
    one, else ``None`` (the run stays entirely unobserved)."""
    if args.metrics_out is None and args.trace_out is None:
        return None
    return ObservabilityKit()


def _write_obs(kit, args):
    """Write the requested observability outputs (before the verdict)."""
    if kit is None:
        return
    if args.metrics_out is not None:
        kit.write_metrics(args.metrics_out)
        print(f"metrics: {args.metrics_out}")
    if args.trace_out is not None:
        count = kit.write_spans(args.trace_out)
        print(f"spans: {args.trace_out} ({count} spans)")


def _parse_join(text):
    """``"delta@38"`` -> ``("delta", 38)``."""
    name, sep, step = text.rpartition("@")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME@STEP, got {text!r}"
        )
    return (name, int(step))


def _parse_leave(text):
    """``"beta:gamma@38"`` -> ``("beta", "gamma", 38)``."""
    pair, sep, step = text.rpartition("@")
    leaver, sep2, successor = pair.partition(":")
    if not sep or not sep2 or not leaver or not successor:
        raise argparse.ArgumentTypeError(
            f"expected LEAVER:SUCCESSOR@STEP, got {text!r}"
        )
    return (leaver, successor, int(step))


def _parse_partition(text):
    """``"alpha|beta,gamma"`` -> ``(("alpha",), ("beta", "gamma"))``."""
    groups = tuple(
        tuple(name for name in part.split(",") if name)
        for part in text.split("|")
    )
    groups = tuple(group for group in groups if group)
    if len(groups) < 2:
        raise argparse.ArgumentTypeError(
            f"a partition needs at least two groups: {text!r}"
        )
    return groups


# Flags that set one plan field each: (args attribute, plan field, convert).
_PLAN_FLAGS = (
    ("crash_at", "crash_at", int),
    ("torn_page_at", "torn_page_at", int),
    ("lose_fsync", "lose_fsync_at", frozenset),
    ("fail_flush_at", "fail_flush_at", frozenset),
    ("failpoint", "crash_at_failpoint", lambda v: (v[0], int(v[1]))),
    ("keep_tail", "keep_tail", bool),
    # Network faults (cluster scenarios).
    ("drop_at", "drop_msg_at", frozenset),
    ("drop_kind", "drop_msg_kinds", frozenset),
    ("dup_at", "dup_msg_at", frozenset),
    ("delay_at", "delay_msg_at", frozenset),
    ("site_crash", "site_crash_at", lambda v: (v[0], int(v[1]))),
    ("kill_coordinator_at", "kill_coordinator_at", int),
    ("join_site", "join_site_at", tuple),
    ("leave_site", "leave_site_at", tuple),
)


def build_plan(args):
    base = FaultPlan.from_dict(json.loads(args.plan)) if args.plan else FaultPlan()
    overrides = {
        field: convert(getattr(args, flag))
        for flag, field, convert in _PLAN_FLAGS
        if getattr(args, flag)  # unset flags are None, False or []
    }
    if args.partition is not None:
        overrides["partition_groups"] = args.partition
        overrides["partition_at"] = (
            args.partition_at if args.partition_at is not None else 1
        )
        if args.heal_at is not None:
            overrides["heal_at"] = args.heal_at
    return base.with_(**overrides) if overrides else base


def _verdict_line(scenario, plan, ok, violations, **extra):
    """The machine-readable last line: one JSON object, stable keys."""
    payload = {
        "scenario": scenario,
        "plan": plan.to_dict(),
        "ok": bool(ok),
        "violations": list(violations),
    }
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True))


def _parse_signal(text):
    """``"approve:qa"`` -> ``("approve", "qa")``; bare name -> payload None."""
    name, sep, payload = text.partition(":")
    if not name:
        raise argparse.ArgumentTypeError(f"empty signal name in {text!r}")
    return (name, payload if sep else None)


def _print_trace(system):
    """The numbered step trace: fabric deliveries, or storage I/O."""
    fabric = getattr(system, "fabric", None)
    if fabric is not None:
        for number, src, dst, kind, action in fabric.delivery_log:
            step = f"{number:4d}" if number is not None else "   -"
            print(f"  {step} {src}->{dst} {kind} [{action}]")
        return
    for step in system.injector.trace:
        print(f"  {step.number:4d} {step.kind} {step.detail}")


def _report(verdict, kind, args, kit):
    """Print one judged run; returns the process exit code."""
    if args.trace:
        _print_trace(verdict.system)
    print(f"plan: {verdict.plan.describe()}")
    if verdict.crash is not None:
        print(f"crashed: step {verdict.crash.step} ({verdict.crash.kind})")
    elif verdict.error is not None:
        print(f"surfaced to the client: {verdict.error!r}")
    elif kind != "cluster":
        print("run completed; power cut applied at end")
    facts = {}
    if kind == "cluster":
        print(f"converged: {verdict.converged}")
        facts["converged"] = verdict.converged
        facts["driver_error"] = (
            f"{type(verdict.error).__name__}: {verdict.error}"
            if verdict.error is not None
            else ""
        )
    else:
        print(f"recovery: {verdict.restarted.report!r}")
    if kind == "workflow":
        status = verdict.status.value if verdict.status else None
        print(f"resumed: {verdict.resumed}")
        print(f"terminal: {status}")
        facts.update(
            storage=args.storage, resumed=verdict.resumed, status=status
        )
    print(f"judgment: {verdict.judgment}")
    if verdict.oracle is not None:
        print(verdict.oracle.describe())
    for violation in verdict.violations:
        print(f"  - {violation}")
    _write_obs(kit, args)
    _verdict_line(
        verdict.scenario,
        verdict.plan,
        verdict.ok,
        verdict.all_violations,
        judgment=verdict.judgment,
        **facts,
    )
    return 0 if verdict.ok else 1


def _instrument(kit, kind):
    """The ``run_plan`` instrument hook that wires ``kit`` to the system."""
    if kit is None:
        return None
    if kind == "cluster":
        return kit.attach_cluster

    def attach(stack):
        kit.attach_stack(stack)
        # Workflow scenarios: also wire the post-restart engine.
        stack.ctx["on_resume"] = kit.attach_workflow

    return attach


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.replay",
        description="Replay a chaos counterexample (fault plan and/or schedule).",
    )
    parser.add_argument("scenario", nargs="?", help="registered scenario name")
    parser.add_argument("--list", action="store_true", help="list scenarios")
    parser.add_argument("--plan", help="JSON fault plan (artifact format)")
    parser.add_argument("--crash-at", type=int, help="crash before I/O step N")
    parser.add_argument("--torn-page-at", type=int, help="tear page write N")
    parser.add_argument(
        "--lose-fsync", type=int, action="append", default=[],
        help="lie about flush step N (repeatable)",
    )
    parser.add_argument(
        "--fail-flush-at", type=int, action="append", default=[],
        help="transient-fail flush step N once (repeatable)",
    )
    parser.add_argument(
        "--retry", type=int, metavar="ATTEMPTS",
        help="attach a RetryPolicy with this total-attempt budget",
    )
    parser.add_argument(
        "--failpoint", nargs=2, metavar=("NAME", "NTH"),
        help="crash at the NTH occurrence of semantic failpoint NAME",
    )
    parser.add_argument("--keep-tail", action="store_true",
                        help="the OS wrote back the volatile log tail")
    parser.add_argument(
        "--drop-at", type=int, action="append", default=[],
        help="drop the message at step N (repeatable; cluster scenarios)",
    )
    parser.add_argument(
        "--drop-kind", action="append", default=[], metavar="KIND",
        help="drop every message of KIND, e.g. 'decision' (repeatable;"
             " resends included — a full release blackout)",
    )
    parser.add_argument(
        "--dup-at", type=int, action="append", default=[],
        help="duplicate the message at step N (repeatable)",
    )
    parser.add_argument(
        "--delay-at", type=int, action="append", default=[],
        help="delay the message at step N one round (repeatable)",
    )
    parser.add_argument(
        "--partition", type=_parse_partition, metavar="A|B,C",
        help="sever site groups, '|'-separated, names ','-separated",
    )
    parser.add_argument(
        "--partition-at", type=int,
        help="install the partition at message step N (default 1)",
    )
    parser.add_argument(
        "--heal-at", type=int, help="heal the partition at message step N"
    )
    parser.add_argument(
        "--site-crash", nargs=2, metavar=("SITE", "STEP"),
        help="power-cut SITE when message step STEP is reached",
    )
    parser.add_argument(
        "--kill-coordinator-at", type=int, metavar="STEP",
        help="power-cut whichever site is coordinating a group commit"
             " at message step STEP (held until a coordinator exists)",
    )
    parser.add_argument(
        "--join-site", type=_parse_join, metavar="NAME@STEP",
        help="a new site NAME joins the cluster at message step STEP",
    )
    parser.add_argument(
        "--leave-site", type=_parse_leave, metavar="LEAVER:SUCCESSOR@STEP",
        help="LEAVER hands its ranges and live transactions to SUCCESSOR"
             " at message step STEP",
    )
    parser.add_argument(
        "--signal-at", type=_parse_signal, action="append", default=[],
        metavar="NAME[:PAYLOAD]",
        help="override a workflow scenario's scripted signal deliveries"
             " (repeatable, delivered when the execution parks on NAME)",
    )
    parser.add_argument(
        "--storage", choices=("flat", "sharded"), default="flat",
        help="WAL engine for workflow scenarios (default flat)",
    )
    parser.add_argument(
        "--shards", type=int, default=4,
        help="shard count for --storage sharded (default 4)",
    )
    parser.add_argument(
        "--schedule",
        help="per-round task-index permutations, e.g. '1,0;0,2,1'",
    )
    parser.add_argument("--trace", action="store_true",
                        help="print the numbered I/O step trace")
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the run's metrics snapshot to PATH as JSON",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write the run's transaction spans to PATH as JSONL",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in names():
            spec = get(name)
            tag = "" if spec.kind == "single-site" else f" [{spec.kind}]"
            print(f"{name}{tag}: {spec.description}")
        return 0
    if not args.scenario:
        parser.error("a scenario name is required (or --list)")

    plan = build_plan(args)
    spec = get(args.scenario)
    kit = _make_kit(args)
    options = {}

    if spec.kind == "workflow":
        if args.signal_at:
            spec = dataclasses.replace(spec, signals=tuple(args.signal_at))
        if args.storage == "sharded":
            options["n_shards"] = args.shards
    elif spec.kind == "single-site":
        if args.schedule is not None:
            options["schedule"] = ScheduleController(
                choices=decode_choices(args.schedule)
            )
        if args.retry is not None:
            options["retry"] = args.retry
        if plan.is_noop and args.schedule is not None:
            return _replay_schedule(spec, plan, options["schedule"], kit, args)

    verdict = run_plan(
        spec, plan, instrument=_instrument(kit, spec.kind), **options
    )
    return _report(verdict, spec.kind, args, kit)


def _replay_schedule(spec, plan, controller, kit, args):
    """Pure schedule replay: drive live, judge with the live oracle."""
    stack = spec.build(schedule=controller)
    if kit is not None:
        kit.attach_stack(stack)
    spec.drive(stack)
    violations = live_violations(stack)
    if args.trace:
        _print_trace(stack)
    print(f"schedule: {args.schedule}")
    if violations:
        print("oracle VIOLATED:")
        for violation in violations:
            print(f"  - {violation}")
    else:
        print("oracle OK")
    _write_obs(kit, args)
    _verdict_line(
        spec.name, plan, not violations, violations, schedule=args.schedule
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
