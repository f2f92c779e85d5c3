"""The six workloads, in the order they are run and reported.

``python -m perf.run`` runs all six.  ``BENCHMARK.json`` names the four
in ``CONTRACT``: its check makes 22 runs per workload inside a fixed
total, so every workload it names shortens every run, and runs shorter
than the shared host's slow spells (tens of seconds) cannot be told
apart from a regression.  The four are the ones whose code the other
two do not reach: the flat engine's hot path, the paper's primitives
and models, file-backed storage with a cache smaller than the data, and
the distributed stack.  ``contended_zipf`` and ``sharded_cross`` drive
the same manager, lock tables and log as ``atomic_seq``, used
differently.
"""

from __future__ import annotations

from perf.workloads.atomic_seq import AtomicSeq
from perf.workloads.cluster_2pc import Cluster2pc
from perf.workloads.contended_zipf import ContendedZipf
from perf.workloads.durable_wal import DurableWal
from perf.workloads.extended_mix import ExtendedMix
from perf.workloads.sharded_cross import ShardedCross

WORKLOADS = {
    cls.name: cls
    for cls in (
        AtomicSeq,
        ContendedZipf,
        ExtendedMix,
        DurableWal,
        ShardedCross,
        Cluster2pc,
    )
}
CONTRACT = ("atomic_seq", "extended_mix", "durable_wal", "cluster_2pc")
