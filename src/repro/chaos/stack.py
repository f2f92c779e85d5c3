"""The instrumented stack: one fault-injected system under test.

:class:`ChaosStack` assembles the whole reproduction — disk, log device,
write-ahead log, buffer pool, object store, transaction manager,
cooperative runtime, history recorder — with a single
:class:`~repro.chaos.faults.FaultInjector` threaded through every I/O
site and the manager's semantic failpoints.  A scenario drives the stack;
when the planned fault fires (a :class:`~repro.chaos.faults.CrashPoint`
escapes), :meth:`restart` models the process death — volatile state
abandoned, unflushed log records gone, a *fresh* storage stack rebuilt
over the surviving devices — and runs restart recovery, exactly the
sequence a real crash would produce.  ``n_shards`` picks the engine:
``None`` is the transaction manager over one shard, a count is the
sharded manager over that many — one storage facade either way, with
the same injector and the same lifecycle.  ``capacity`` is the buffer
pool's frame count (per shard), for scenarios that want a pool smaller
than their working set — before and after the restart.

The stack also keeps the books the oracles need:

* ``intent`` — what the scenario *meant* to happen (dependencies it
  formed, delegations it performed, the clean-run expected state),
  recorded *before* the corresponding primitive runs so it survives both
  crashes and deliberately mutated primitives;
* ``acks`` / ``durable_acks`` — commits the system acknowledged, split by
  whether the commit record was genuinely on stable storage at the
  acknowledgement (a lying fsync or a group-commit deferral window makes
  the system ack commits it cannot keep; only *durable* acks carry the
  durability guarantee the oracle enforces).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.acta.history import HistoryRecorder
from repro.chaos.faults import FaultInjector, FaultPlan
from repro.core.manager import TransactionManager
from repro.core.sharded import ShardedTransactionManager
from repro.runtime.coop import CooperativeRuntime
from repro.runtime.sharded import ShardedRuntime
from repro.storage.log import CommitRecord, WriteAheadLog
from repro.storage.store import StorageManager


@dataclass
class RestartedSystem:
    """What exists after a simulated crash + restart recovery."""

    storage: object  # the StorageManager rebuilt over the devices
    report: object  # RecoveryReport
    durable_records: list  # the log exactly as the restart found it


def read_state(storage):
    """``{oid_value: bytes}`` snapshot of a storage manager's objects."""
    return storage.object_state()


@dataclass
class Intent:
    """The scenario's declared intentions, recorded ahead of execution."""

    dependencies: list = field(default_factory=list)  # (type_name, ti, tj)
    delegations: list = field(default_factory=list)  # (source, target, oids)
    expected_clean: dict = field(default_factory=dict)  # oid_value -> bytes
    oids: dict = field(default_factory=dict)  # name -> ObjectId
    # The committed state at the last sharp (truncating) checkpoint.
    # After truncation the durable log no longer describes the full
    # history, so the replay oracle starts from this baseline instead of
    # from nothing.  Scenarios that truncate declare it at the moment
    # they checkpoint; empty means "the log is the whole story".
    baseline: dict = field(default_factory=dict)  # oid_value -> bytes


class ChaosStack:
    """A full ASSET stack wired to one fault injector."""

    def __init__(self, plan=None, group_commit=None, seed=None, schedule=None,
                 resilience=None, n_shards=None, capacity=256):
        self.plan = plan if plan is not None else FaultPlan()
        self.injector = FaultInjector(plan=self.plan)
        self.n_shards = n_shards
        self.capacity = capacity
        self.seed = seed
        self.storage = StorageManager(
            n_shards=n_shards,
            group_commit=group_commit,
            injector=self.injector,
            capacity=capacity,
        )
        self.runtime = self.runtime_over(
            self.storage, failpoint=self.injector.failpoint, schedule=schedule
        )
        self.manager = self.runtime.manager
        self.recorder = HistoryRecorder(self.manager)
        # Resilience layer (repro.resilience): ``resilience`` is None
        # (off) or a dict of install_resilience keyword overrides.  The
        # kit's watchdog/deadline handles hang off ``self.resilience``;
        # sweeps inject a RetryPolicy via ``self.retry_policy`` and
        # scenario drivers commit through :meth:`commit` which honours it.
        self.resilience = None
        if resilience is not None:
            from repro.resilience import install_resilience

            kwargs = dict(resilience) if isinstance(resilience, dict) else {}
            self.resilience = install_resilience(
                self.manager, self.runtime, **kwargs
            )
        self.retry_policy = None
        # Scenario scratch space that must outlive the crash: workflow
        # scenarios keep their oids, wid and engine here so the judge
        # can rebuild the definition over the recovered storage.
        self.ctx = {}
        self.intent = Intent()
        self.acks = []  # every commit the system acknowledged
        self.durable_acks = []  # the subset genuinely on stable storage
        self.absorbed_acks = []  # acks absorbed by a truncating checkpoint
        self._tail_kept = False

    def runtime_over(self, storage, failpoint=None, schedule=None):
        """A fresh manager + runtime over ``storage``, in this stack's
        flavour (flat or sharded) and seed — the stack's own at build
        time, and the one a judge resumes on after :meth:`restart`."""
        if self.n_shards is None:
            manager = TransactionManager(storage=storage, failpoint=failpoint)
            return CooperativeRuntime(
                manager, seed=self.seed, schedule=schedule
            )
        manager = ShardedTransactionManager(
            n_shards=self.n_shards, storage=storage, failpoint=failpoint
        )
        return ShardedRuntime(
            manager=manager, seed=self.seed, schedule=schedule
        )

    def _segments(self):
        """Every write-ahead log of the stack, one per shard."""
        return [shard.log for shard in self.storage.shards]

    # -- intent bookkeeping (called by scenarios, ahead of the primitive) --

    def intend_dependency(self, dep_type, ti, tj):
        """Declare a dependency the scenario is about to form."""
        name = getattr(dep_type, "name", dep_type)
        self.intent.dependencies.append((name, ti, tj))

    def intend_delegation(self, source, target, oids):
        """Declare a delegation the scenario is about to perform."""
        self.intent.delegations.append((source, target, tuple(oids)))

    # -- acknowledgement bookkeeping ---------------------------------------

    def note_ack(self, *tids):
        """The system just told the client these commits succeeded.

        Each tid is classified truthfully: a *durable* ack has its commit
        record inside the device's genuinely-flushed prefix at this
        moment (peeking past any lying fsync).  The durability oracle
        holds the system to its durable acks only — an ack issued from a
        group-commit deferral window or over a lost fsync is a promise
        the hardware already broke.
        """
        for tid in tids:
            self.acks.append(tid)
            if self._commit_is_durable(tid):
                self.durable_acks.append(tid)

    def _commit_is_durable(self, tid):
        for log in self._segments():
            durable = log.device.durable_count()
            for index, record in enumerate(log.records()):
                if index >= durable:
                    break
                if (
                    isinstance(record, CommitRecord)
                    and tid in record.committed_tids()
                ):
                    return True
        return False

    def commit(self, tid, *group):
        """Drive a commit through the runtime and record the ack.

        When a :attr:`retry_policy` is attached (transient-fault sweeps),
        the commit runs under it: injected ``TransientIOError`` flushes
        are retried within the budget; an exhausted budget raises
        :class:`~repro.common.errors.RetryExhausted`.  The ack is only
        noted once the commit actually succeeded.
        """
        if self.retry_policy is None:
            ok = self.runtime.commit(tid)
        else:
            ok = self.retry_policy.run(
                lambda: self.runtime.commit(tid), op="commit", tid=tid
            )
        if ok:
            self.note_ack(tid, *group)
        return ok

    def note_truncation(self):
        """Declare an imminent sharp (truncating) checkpoint.

        The checkpoint's truncation removes every commit record from the
        log, so acknowledged commits so far can no longer be verified
        against it — their effects are absorbed into the declared
        baseline instead.  Called *before* the checkpoint, like all
        intent, so a crash anywhere inside it is judged correctly.
        """
        self.absorbed_acks.extend(self.acks)
        self.acks = []
        self.durable_acks = []

    # -- crash / restart ----------------------------------------------------

    def restart(self, recovery_injector=None):
        """Model the crash aftermath: reboot over the surviving devices.

        Everything volatile — buffer pool, object table, transaction
        manager, runtime — is abandoned.  The log device drops its
        unflushed tail (unless the plan says the OS happened to write it
        back: ``keep_tail``), a fresh write-ahead log re-reads what
        survived, a fresh storage stack is built over the same disk, and
        restart recovery runs.

        ``recovery_injector`` arms a *new* injector over the surviving
        devices so recovery's own I/O can be crashed (the idempotence
        tests); a :class:`~repro.chaos.faults.CrashPoint` it raises
        propagates to the caller, who simply calls :meth:`restart` again
        — as many times as it takes, like a machine in a reboot loop.
        """
        self.injector.disarm()
        if self.plan.keep_tail and not self._tail_kept:
            # The OS wrote back the volatile tail before the power went.
            self._tail_kept = True
            for log in self._segments():
                log.device._advance_durable()
        shards = self.storage.shards
        for shard in shards:
            shard.log.device.crash()
            if recovery_injector is not None:
                shard.log.device.injector = recovery_injector
                shard.disk.injector = recovery_injector
        storage = StorageManager(
            disk=[shard.disk for shard in shards],
            log=[WriteAheadLog(shard.log.device) for shard in shards],
            injector=recovery_injector, capacity=self.capacity,
        )
        durable_records = storage.log.records()
        report = storage.recover()
        return RestartedSystem(
            storage=storage, report=report, durable_records=durable_records
        )
