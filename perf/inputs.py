"""Seeded input generators: the whole load, as plain data.

Every function maps ``(seed, units)`` to lists of ints, bools and bytes
and imports nothing from ``repro`` — the program under test receives
only these values, so a change under ``src/`` cannot alter the load, and
the same seed gives byte-identical inputs (``digest`` is recorded in
every result).  What is *scripted* (which saga fails, which group has
three members) goes by unit index, so outcome counts are the same for
every seed; what is *sampled* (which counters a unit touches) comes from
the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random

VALUE_BYTES = 2048  # durable_wal object size
EXTENDED_KINDS = (
    "saga", "nested", "split", "contingent", "cooperative", "workflow",
)
SITES = ("alpha", "beta", "gamma")


def _rng(seed, workload):
    # One independent stream per workload, so adding a workload never
    # shifts another one's inputs.
    return random.Random(f"perf:{workload}:{seed}")


def atomic_seq(seed, units, n_objects=64):
    """One counter index per unit (uniform)."""
    rng = _rng(seed, "atomic_seq")
    return [rng.randrange(n_objects) for _ in range(units)]


def contended_zipf(seed, units, n_objects=256, ops=4, theta=0.8,
                   write_share=0.5):
    """Per unit, ``ops`` pairs ``(is_write, counter index)``.

    Ranks follow a Zipf law of exponent ``theta``; a write is a read
    followed by a write of the same counter (the upgrade that makes
    deadlocks).  The pattern over *ranks* is fixed by the workload and
    the seed decides which counter holds which rank: over 1,500 units
    the number of deadlocks swings by 30% from one pattern to the next
    (and the tail latency with it), which no regression bound would
    survive, while a renaming of the counters keeps the conflict
    structure — and so every count — the same.
    """
    pattern = _rng("pattern", "contended_zipf")
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** theta for rank in range(n_objects)
    ))
    counter_of_rank = list(range(n_objects))
    _rng(seed, "contended_zipf").shuffle(counter_of_rank)
    out = []
    for _ in range(units):
        ranks = pattern.choices(range(n_objects), cum_weights=cumulative, k=ops)
        out.append(tuple(
            (pattern.random() < write_share, counter_of_rank[rank])
            for rank in ranks
        ))
    return out


def extended_mix(seed, units, n_objects=256):
    """Per unit ``(kind, fails, counters)``.

    Kinds go round-robin; every fifth saga and every fifth workflow is
    scripted to fail at its last step and must compensate.  ``counters``
    are three distinct indexes (the steps / children / halves of the
    unit work on one each).
    """
    rng = _rng(seed, "extended_mix")
    out = []
    for unit in range(units):
        kind = EXTENDED_KINDS[unit % len(EXTENDED_KINDS)]
        nth = unit // len(EXTENDED_KINDS)  # how many of this kind so far
        fails = kind in ("saga", "workflow") and nth % 5 == 4
        out.append((kind, fails, tuple(rng.sample(range(n_objects), 3))))
    return out


def durable_wal(seed, units, n_objects=256, writes=6):
    """Per unit ``(read index, write indexes, 32-byte value stem)``.

    The stored value is the stem repeated to ``VALUE_BYTES``; the stem
    is random so page images differ unit to unit.
    """
    rng = _rng(seed, "durable_wal")
    return [
        (
            rng.randrange(n_objects),
            tuple(rng.sample(range(n_objects), writes)),
            rng.randbytes(32),
        )
        for _ in range(units)
    ]


def durable_value(stem):
    return stem * (VALUE_BYTES // len(stem))


def sharded_cross(seed, units, clients=4, n_shards=4, n_objects=256,
                  cross_share=0.3):
    """Per unit ``(shard, slot, partner slot or -1)``.

    Units go to clients round-robin, and each client owns an equal share
    of the counters on every shard (``slot`` indexes into that share),
    so clients never touch the same counter and no unit can block or
    fail.  A partner slot names one of the client's own counters on the
    *next* shard: the unit then commits across two shards.
    """
    rng = _rng(seed, "sharded_cross")
    slots = n_objects // (clients * n_shards)
    out = []
    for _ in range(units):
        shard = rng.randrange(n_shards)
        slot = rng.randrange(slots)
        partner = rng.randrange(slots) if rng.random() < cross_share else -1
        out.append((shard, slot, partner))
    return out


def cluster_2pc(seed, units, counters_per_site=16):
    """Per group ``(coordinator, ((site, counter index), ...))``.

    Members rotate over the three site pairs, every fourth group has all
    three sites, and the coordinator rotates over the members.
    """
    rng = _rng(seed, "cluster_2pc")
    pairs = list(itertools.combinations(SITES, 2))
    out = []
    for unit in range(units):
        sites = SITES if unit % 4 == 3 else pairs[unit % len(pairs)]
        members = tuple(
            (site, rng.randrange(counters_per_site)) for site in sites
        )
        out.append((sites[unit % len(sites)], members))
    return out


GENERATORS = {
    "atomic_seq": atomic_seq,
    "contended_zipf": contended_zipf,
    "extended_mix": extended_mix,
    "durable_wal": durable_wal,
    "sharded_cross": sharded_cross,
    "cluster_2pc": cluster_2pc,
}


def digest(inputs):
    """SHA-256 of the inputs' canonical text form."""
    return hashlib.sha256(repr(inputs).encode("utf-8")).hexdigest()
