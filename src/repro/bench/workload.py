"""Synthetic workload generation.

A :class:`WorkloadSpec` describes a population of read/write transactions
over a set of counter objects: how many transactions, operations per
transaction, the read/write mix, and the access skew (uniform or
Zipf-like).  Generation is fully seeded — the same spec always produces
the same operation lists — which, combined with the deterministic
runtime, makes every benchmark reproducible bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.codec import decode_int, encode_int
from repro.core.semantics import READ, WRITE


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic workload."""

    transactions: int = 10
    ops_per_txn: int = 4
    n_objects: int = 16
    write_ratio: float = 0.5
    zipf_theta: float = 0.0  # 0 = uniform; higher = more skew
    seed: int = 0

    def access_weights(self):
        """Per-object selection weights under the configured skew."""
        if self.zipf_theta <= 0:
            return [1.0] * self.n_objects
        return [
            1.0 / ((rank + 1) ** self.zipf_theta)
            for rank in range(self.n_objects)
        ]

    def generate(self):
        """Produce one operation list per transaction.

        Each operation is ``(op, object_index)`` with ``op`` in
        ``{read, write}``.
        """
        rng = random.Random(self.seed)
        weights = self.access_weights()
        population = list(range(self.n_objects))
        workload = []
        for __ in range(self.transactions):
            ops = []
            for __ in range(self.ops_per_txn):
                index = rng.choices(population, weights=weights, k=1)[0]
                op = WRITE if rng.random() < self.write_ratio else READ
                ops.append((op, index))
            workload.append(ops)
        return workload


def populate_objects(runtime, count, initial=0, prefix="obj"):
    """Create ``count`` integer objects; returns their ids in order."""

    def setup(tx):
        oids = []
        for index in range(count):
            oid = yield tx.create(
                encode_int(initial), name=f"{prefix}{index}"
            )
            oids.append(oid)
        return oids

    return runtime.run(setup).value


def body_for(ops, oids):
    """Build a transaction body executing ``ops`` against ``oids``.

    Reads decode the counter; writes increment it (read-modify-write), so
    write/write conflicts are real data races the lock manager must
    order.
    """

    def body(tx):
        total = 0
        for op, index in ops:
            oid = oids[index]
            if op == READ:
                total += decode_int((yield tx.read(oid)))
            else:
                value = decode_int((yield tx.read(oid)))
                yield tx.write(oid, encode_int(value + 1))
        return total

    return body


def bodies_for(spec, oids):
    """All transaction bodies for a workload spec."""
    return [body_for(ops, oids) for ops in spec.generate()]
