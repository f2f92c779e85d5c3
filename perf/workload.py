"""What every workload provides, and the helpers they share.

A workload instance is one engine: ``build`` it (timed as set-up),
``run`` inputs through it (the timed loop), then ``verify``, read its
``counters`` and ``census``, and finally ``recover`` it.  The same class
is built once more, beforehand, as the throwaway warm-up instance.
"""

from __future__ import annotations

from collections import Counter

from repro.core.manager import TransactionManager
from repro.runtime.coop import CooperativeRuntime

WARMUP_UNITS = 200


def encode(value):
    return b"%d" % value


def decode(raw):
    return int(raw)


def create_objects(tx, count, value=b"0"):
    """Transaction body: ``count`` unnamed objects holding ``value``
    (by default integer counters at zero)."""
    oids = []
    for _ in range(count):
        oids.append((yield tx.create(value)))
    return oids


def increment(tx, oid):
    """Transaction body: read-modify-write one counter."""
    value = decode((yield tx.read(oid)))
    yield tx.write(oid, encode(value + 1))


def read_values(tx, oids):
    """Transaction body: the stored bytes of every object."""
    values = []
    for oid in oids:
        values.append((yield tx.read(oid)))
    return values


def read_counters(tx, oids):
    """Transaction body: the current value of every counter."""
    return [decode(raw) for raw in (yield from read_values(tx, oids))]


def increment_bytes(counts):
    """Bytes written by counters that were incremented ``counts`` times:
    the n-th increment of a counter writes the decimal text of n."""
    return sum(len(encode(n)) for count in counts for n in range(1, count + 1))


def log_bytes(log):
    """Bytes of encoded records the log's device holds."""
    return sum(len(raw) for raw in log.device.read_all())


def size_of(owner, attribute):
    """``len(owner.attribute)``, or ``None`` once the attribute is gone.

    The census reads a few structures that have no public accessor; a
    later change may rename them, and the benchmark must then report
    ``null`` rather than fail.
    """
    try:
        return len(getattr(owner, attribute))
    except (AttributeError, TypeError):
        return None


class Workload:
    """Base class; see the module docstring for the protocol."""

    name = ""
    why = ""
    units = 0  # units per timed loop at scale 1
    clients = 1

    def __init__(self, tracer, workdir, clock):
        self.tracer = tracer
        self.workdir = workdir
        self.clock = clock  # what ``recover`` times itself with

    def build(self):
        """Construct the engine and populate its objects."""
        raise NotImplementedError

    def generate(self, seed, units):
        """The seeded inputs (plain data from ``perf.inputs``)."""
        raise NotImplementedError

    def prepare(self, inputs):
        """Untimed: turn inputs into what ``run`` submits (default: as is)."""
        return inputs

    def run(self, work, recorder):
        """The timed loop: push every prepared input through, closed-loop."""
        raise NotImplementedError

    def verify(self, inputs, recorder):
        """Problems found in the outputs, as a list of strings."""
        raise NotImplementedError

    def managers(self):
        """The transaction managers at work (one, or one per site)."""
        return [self.manager]

    def counters(self):
        """Cumulative exact counts from the engine's public statistics."""
        raise NotImplementedError

    def user_bytes(self, inputs):
        """Bytes of object values the committed units wrote."""
        raise NotImplementedError

    def census(self):
        """Sizes of the structures that could grow with run length."""
        raise NotImplementedError

    def recover(self, inputs, recorder):
        """Restart the storage; returns ``(seconds, counts, problems)``."""
        raise NotImplementedError

    def close(self):
        """Release files and threads (nothing, by default)."""


def buffer_pools(storage):
    """The storage's buffer pools: one, or one per shard."""
    shards = getattr(storage, "shards", None)
    return [shard.pool for shard in shards] if shards else [storage.pool]


def manager_counters(manager, runtime):
    """The counts every single-site workload reads the same way."""
    log = manager.storage.log
    pools = buffer_pools(manager.storage)
    out = {
        "runtime.steps": runtime.steps,
        "core.manager.commits": manager.stats["committed"],
        "core.manager.aborts": manager.stats["aborted"],
        "core.manager.commit_blocks": manager.stats["commit_blocks"],
        "core.manager.cascaded_aborts": manager.stats["cascaded_aborts"],
        "core.locks.blocks": manager.lock_manager.stats["blocks"],
        "core.locks.suspensions": manager.lock_manager.stats["suspensions"],
        "storage.log.appends": len(log.records()),
        "storage.log.flushes": log.flush_count,
        "storage.pages.hits": sum(pool.hits for pool in pools),
        "storage.pages.misses": sum(pool.misses for pool in pools),
    }
    return out


def manager_census(manager, runtime):
    live = sum(
        1 for td in manager.table if not td.status.is_terminated
    )
    return {
        "census.runtime_tasks": size_of(runtime, "_tasks"),
        "census.txn_table": len(manager.table),
        "census.object_descriptors": len(manager.registry),
        "census.site_settled_gids": 0,
        "census.site_voted_gids": 0,
        "census.log_records": len(manager.storage.log.records()),
        "census.live_transactions": live,
    }


def compare_counters(got, want):
    if got == want:
        return []
    wrong = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    first = wrong[0] if wrong else 0
    return [
        f"{len(wrong)} counters differ from the committed increments"
        f" (first: counter {first} = {got[first]}, expected {want[first]};"
        f" sums {sum(got)} vs {sum(want)})"
    ]


class CounterWorkload(Workload):
    """Shared by the workloads whose units only increment counters on one
    cooperative runtime: the counters must end at the number of committed
    increments, before and after a crash + ``recover()``.

    ``build`` leaves ``raw_runtime`` (for untimed checks), ``runtime``
    (the same, behind the tracer), ``manager`` and ``oids``;
    ``increments(inputs)`` lists, unit by unit, the counter indexes the
    unit adds one to when it reaches its scripted outcome.
    """

    objects = 0

    def new_runtime(self, storage=None):
        """A runtime over fresh storage, or over ``storage`` recovered."""
        if storage is None:
            return CooperativeRuntime()
        return CooperativeRuntime(TransactionManager(storage=storage))

    def build(self):
        self.raw_runtime = self.new_runtime()
        self.manager = self.raw_runtime.manager
        self.oids = self.raw_runtime.run(
            create_objects, args=(self.objects,)
        ).value
        self.runtime = self.tracer.wrap("runtime", self.raw_runtime)
        self.traced_manager = self.tracer.wrap("core.manager", self.manager)

    def increments(self, inputs):
        raise NotImplementedError

    def expected(self, inputs, recorder=None):
        """Per counter, the increments of the units that committed."""
        failed = set(recorder.failed) if recorder is not None else ()
        tally = Counter(
            index
            for unit, touched in enumerate(self.increments(inputs))
            if unit not in failed
            for index in touched
        )
        return [tally[index] for index in range(self.objects)]

    def read_back(self, runtime):
        return runtime.run(read_counters, args=(self.oids,)).value

    def verify(self, inputs, recorder):
        return compare_counters(
            self.read_back(self.raw_runtime), self.expected(inputs, recorder)
        )

    def user_bytes(self, inputs):
        return increment_bytes(self.expected(inputs))

    def counters(self):
        out = manager_counters(self.manager, self.raw_runtime)
        out["storage.log.bytes"] = self.log_bytes()
        return out

    def log_bytes(self):
        return log_bytes(self.manager.storage.log)

    def census(self):
        return manager_census(self.manager, self.raw_runtime)

    def recover(self, inputs, recorder):
        storage = self.manager.storage
        records = len(storage.log.records())
        storage.crash()  # the cache and the unflushed log tail are lost
        report, seconds = self.clock.timed(storage.recover)
        got = self.read_back(self.new_runtime(storage))
        counts = {
            "storage.recovery.records_scanned": records,
            "storage.recovery.redo_count": report.redone,
            "storage.recovery.undo_count": report.undone,
        }
        return seconds, counts, [
            "after recovery: " + problem
            for problem in compare_counters(
                got, self.expected(inputs, recorder)
            )
        ]
