"""Runtimes: executing transaction programs over the synchronous core.

Transaction bodies are written once, as generator functions that yield
*requests* (:mod:`repro.runtime.program`), and run on any runtime:

* :class:`~repro.runtime.coop.CooperativeRuntime` — a deterministic
  scheduler that interleaves programs step by step (round-robin or
  seeded-random), used by tests, benchmarks, and the property suite for
  reproducible concurrency;
* :class:`~repro.runtime.sharded.ShardedRuntime` — the deterministic
  sharded engine (the one transaction manager over an N-shard store:
  per-shard pools and WAL segments), the differential-replay peer of
  the cooperative oracle;
* :class:`~repro.runtime.threaded.ThreadedRuntime` — the same stepper
  on worker threads with real blocking, over a flat or an N-shard
  manager: a tree spawned with a key runs on its shard's worker, any
  other tree on a worker of its own, children on their parent's.

There is one program driver (``CooperativeRuntime._step``) and one
driver API; engines differ only in what a driver call does when nothing
moved — run a round, or wait for the next manager event — so a
program's semantics do not depend on the runtime that executes it:
the paper's "blocks and retries later starting at step 1".
"""

from repro.runtime.coop import (
    CooperativeRuntime,
    SchedulerStalledError,
    StalledTask,
)
from repro.runtime.program import TxnContext
from repro.runtime.sharded import ShardedRuntime
from repro.runtime.threaded import ThreadedRuntime

__all__ = [
    "CooperativeRuntime",
    "SchedulerStalledError",
    "ShardedRuntime",
    "StalledTask",
    "ThreadedRuntime",
    "TxnContext",
]
