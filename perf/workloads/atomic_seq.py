"""atomic_seq — one client, sequential read-modify-write transactions."""

from __future__ import annotations

from perf import inputs as gen
from perf.clients import run_sequential
from perf.workload import CounterWorkload, increment


class AtomicSeq(CounterWorkload):
    name = "atomic_seq"
    why = (
        "the engine every test and oracle runs on, in its simplest use:"
        " locks never block, storage is memory-only"
    )
    units = 3000
    clients = 1
    objects = 64

    def generate(self, seed, units):
        return gen.atomic_seq(seed, units, self.objects)

    def run(self, work, recorder):
        run = self.runtime.run
        oids = self.oids

        def do_unit(index):
            return "atomic", run(increment, args=(oids[index],)).committed

        run_sequential(work, do_unit, recorder)

    def increments(self, inputs):
        return [(index,) for index in inputs]
