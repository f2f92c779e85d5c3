"""sharded_cross — four clients on the sharded engine, 30% cross-shard."""

from __future__ import annotations

from repro.core.sharded import ShardedTransactionManager
from repro.runtime.sharded import ShardedRuntime

from perf import inputs as gen
from perf.clients import run_pool
from perf.workload import CounterWorkload, decode, encode, log_bytes


def bump(oids):
    def body(tx):
        for oid in oids:
            value = decode((yield tx.read(oid)))
            yield tx.write(oid, encode(value + 1))

    return body


class ShardedCross(CounterWorkload):
    name = "sharded_cross"
    why = (
        "the sharded engine and segmented WAL under their own traffic,"
        " with the cross-shard commit barrier on 30% of units"
    )
    units = 3000
    clients = 4
    objects = 256
    shards = 4
    seed = 7  # the runtime's interleaving seed: part of the workload

    def generate(self, seed, units):
        return gen.sharded_cross(
            seed, units, self.clients, self.shards, self.objects
        )

    def new_runtime(self, storage=None):
        if storage is None:
            return ShardedRuntime(n_shards=self.shards, seed=self.seed)
        return ShardedRuntime(
            manager=ShardedTransactionManager(storage=storage)
        )

    def build(self):
        super().build()
        # Counter positions by shard, in creation order: unnamed objects
        # are placed by oid, so every shard gets objects/shards of them.
        router = self.manager.router
        self.by_shard = [[] for _ in range(self.shards)]
        for position, oid in enumerate(self.oids):
            self.by_shard[router.shard_of(oid)].append(position)

    def positions(self, inputs):
        """Per unit, the counter positions it increments (1 or 2)."""
        slots = self.objects // (self.clients * self.shards)
        out = []
        for unit, (shard, slot, partner) in enumerate(inputs):
            base = (unit % self.clients) * slots
            touched = [self.by_shard[shard][base + slot]]
            if partner >= 0:
                touched.append(
                    self.by_shard[(shard + 1) % self.shards][base + partner]
                )
            out.append(touched)
        return out

    def prepare(self, inputs):
        oids = self.oids
        return [
            bump([oids[position] for position in touched])
            for touched in self.positions(inputs)
        ]

    def run(self, work, recorder):
        run_pool(
            self.runtime, self.traced_manager, work, self.clients, recorder
        )

    increments = positions

    def counters(self):
        out = super().counters()
        out["core.sharded.cross_shard_commits"] = self.manager.stats[
            "cross_shard_commits"
        ]
        out["storage.segmented.flushes"] = sum(
            row["flushes"] for row in self.manager.storage.segment_stats()
        )
        return out

    def log_bytes(self):
        return sum(
            log_bytes(segment) for segment in self.manager.storage.log.segments
        )
