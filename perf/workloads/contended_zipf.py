"""contended_zipf — four clients fighting over Zipf-hot counters."""

from __future__ import annotations

from perf import inputs as gen
from perf.clients import run_pool
from perf.workload import CounterWorkload, decode, encode


def body_for(ops, oids):
    """A unit's transaction body from its ``(is_write, index)`` ops."""

    def body(tx):
        for is_write, index in ops:
            oid = oids[index]
            value = decode((yield tx.read(oid)))
            if is_write:
                yield tx.write(oid, encode(value + 1))

    return body


class ContendedZipf(CounterWorkload):
    name = "contended_zipf"
    why = (
        "same manager and lock tables as atomic_seq under conflict: requests"
        " block, upgrade deadlocks form, victims undo and retry"
    )
    units = 1500
    clients = 4
    objects = 256

    def generate(self, seed, units):
        return gen.contended_zipf(seed, units, self.objects)

    def prepare(self, inputs):
        return [body_for(ops, self.oids) for ops in inputs]

    def run(self, work, recorder):
        run_pool(
            self.runtime, self.traced_manager, work, self.clients, recorder
        )

    def increments(self, inputs):
        return [
            [index for is_write, index in ops if is_write] for ops in inputs
        ]
