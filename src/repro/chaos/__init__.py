"""The chaos harness: deterministic fault injection, schedule
exploration, and the oracles that judge what survives.

The reproduction's correctness story is only as strong as the failures
it has been run through.  This package makes failure a first-class,
enumerable input:

* :mod:`repro.chaos.faults` — numbered I/O steps, fault plans (crash,
  torn page write, lost fsync, semantic failpoints), and the injector
  threaded through every storage-layer I/O site;
* :mod:`repro.chaos.stack` — one fully instrumented system under test,
  with crash/restart lifecycle and truthful acknowledgement tracking;
* :mod:`repro.chaos.sweep` — the one sweep harness (probe → enumerate →
  run → judge → replay) every single-site, workflow and cluster sweep
  runs on: fault dimensions as generators, one ``run_plan``, one
  ``sweep`` loop with coverage accounting, one verdict and result type,
  one scenario registry, one-command replay artifacts;
* :mod:`repro.chaos.scenarios` — named deterministic single-site
  workloads that declare their intent as they run;
* :mod:`repro.chaos.workflow` — durable-workflow scenarios and their
  crash → restart → resume judgment;
* :mod:`repro.chaos.explorer` — interleaving enumeration over the
  cooperative runtime, with recorded, replayable, minimized schedules;
* :mod:`repro.chaos.oracles` — the independent invariants: durability of
  acknowledged commits, exact-state replay of the durable log, ACTA
  properties over durable fates, recovery idempotence;
* :mod:`repro.chaos.mutations` — deliberate in-process breakage that
  proves the oracles can see the bugs they exist for;
* :mod:`repro.chaos.replay` — the command-line counterexample replayer.

See docs/internals.md ("The chaos harness") for the fault-point taxonomy
and the replay workflow.
"""

from repro.chaos.explorer import (
    ExplorationResult,
    ScheduleController,
    ScheduleExplorer,
    ScheduleFailure,
    decode_choices,
    encode_choices,
)
from repro.chaos.faults import (
    CrashPoint,
    FaultInjector,
    FaultPlan,
    IO_KINDS,
    IoStep,
    TORN_PREFIX,
)
from repro.chaos.oracles import (
    OracleReport,
    analyze_log,
    check_idempotent,
    evaluate_recovery,
    expected_state,
)
from repro.chaos.stack import ChaosStack, RestartedSystem, read_state
from repro.chaos.sweep import (
    Case,
    FailureArtifact,
    SweepResult,
    Trace,
    Verdict,
    crash_sweep,
    probe,
    replay_command,
    run_plan,
)

__all__ = [
    "Case",
    "ChaosStack",
    "CrashPoint",
    "ExplorationResult",
    "FailureArtifact",
    "FaultInjector",
    "FaultPlan",
    "IO_KINDS",
    "IoStep",
    "OracleReport",
    "RestartedSystem",
    "ScheduleController",
    "ScheduleExplorer",
    "ScheduleFailure",
    "SweepResult",
    "TORN_PREFIX",
    "Trace",
    "Verdict",
    "analyze_log",
    "check_idempotent",
    "crash_sweep",
    "decode_choices",
    "encode_choices",
    "evaluate_recovery",
    "expected_state",
    "probe",
    "read_state",
    "replay_command",
    "run_plan",
]
