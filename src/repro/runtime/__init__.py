"""Runtimes: executing transaction programs over the synchronous core.

Transaction bodies are written once, as generator functions that yield
*requests* (:mod:`repro.runtime.program`), and run on any runtime:

* :class:`~repro.runtime.coop.CooperativeRuntime` — a deterministic
  scheduler that interleaves programs step by step (round-robin or
  seeded-random), used by tests, benchmarks, and the property suite for
  reproducible concurrency;
* :class:`~repro.runtime.threaded.ThreadedRuntime` — a thread per
  transaction with real blocking, the "live" configuration;
* :class:`~repro.runtime.sharded.ShardedRuntime` — the deterministic
  sharded engine (the one transaction manager over an N-shard store:
  per-shard pools and WAL segments), the differential-replay peer of
  the cooperative oracle;
* :class:`~repro.runtime.sharded.ParallelShardedRuntime` — a worker
  thread per shard over the same manager, the throughput
  configuration.

All translate the paper's "blocks and retries later starting at step 1"
into their own waiting discipline around the same core outcomes, so a
program's semantics do not depend on the runtime that executes it.
"""

from repro.runtime.coop import (
    CooperativeRuntime,
    SchedulerStalledError,
    StalledTask,
)
from repro.runtime.program import TxnContext
from repro.runtime.sharded import ParallelShardedRuntime, ShardedRuntime
from repro.runtime.threaded import ThreadedRuntime

__all__ = [
    "CooperativeRuntime",
    "ParallelShardedRuntime",
    "SchedulerStalledError",
    "ShardedRuntime",
    "StalledTask",
    "ThreadedRuntime",
    "TxnContext",
]
