"""The sharded transaction manager (ROADMAP item 1).

:class:`ShardedTransactionManager` stripes the section 4.1 control
structures across N shards, each guarded by one of the EOS S/X latches
from :mod:`repro.common.latch`:

* object descriptors (and with them the permit buckets — permits
  physically attach to ODs) live in per-shard registries routed by the
  storage's :class:`~repro.storage.segmented.ShardRouter`;
* dependency edges live in a :class:`~repro.core.sharding.StripedDependencyGraph`;
* storage is a :class:`~repro.storage.store.StorageManager` of as many
  shards — per-shard object stores and WAL segments with parallel group
  commit.

**Latch discipline** (the deadlock-freedom argument, also in
``docs/internals.md``):

* *Object operations* (``create_object`` / ``try_read`` / ``try_write``
  / ``try_operation``) take ONLY the one shard latch of the object they
  touch — never the manager mutex, never a second latch.  This is the
  hot path the sharding exists for: operations on different shards
  proceed in parallel.
* *Control operations* (``delegate``, ``permit``, ``try_commit``,
  ``try_prepare``, ``abort``, ``rollback_to``, ``checkpoint``,
  ``sync``) take the manager mutex FIRST, then their shard-latch set in
  ascending order.  The mutex serializes every multi-latch acquirer, so
  no two of them can hold-and-wait against each other; a single-latch
  holder (an object op) never waits for anything while holding its
  latch.  No cycle is possible.
* A thread-local held-latch set makes the discipline effectively
  reentrant (the latches themselves are not): ``abort`` called from
  inside ``try_commit`` — which already holds a latch subset — only
  acquires the latches it is missing.
* Aborts escalated from a quarantined read are raised OUT of the latch
  scope first (an abort takes the mutex; mutex-after-latch would invert
  the order).

Determinism: driven single-threaded (by the deterministic
:class:`~repro.runtime.sharded.ShardedRuntime`), every latch acquisition
is uncontended and the primitive bodies run the exact base-class code
paths, so the event stream — and the ACTA history derived from it — is
byte-identical to the single-manager oracle.  That is what the
differential harness in ``tests/differential`` checks.

Under the parallel runtime, counters in ``lock_manager.stats`` and the
logical clock are updated outside the mutex on the object-op fast path;
they are approximate there (documented), while all commit/abort/ACTA
bookkeeping stays exact because it runs under the mutex.
"""

from __future__ import annotations

import contextlib
import threading

from repro.common.errors import QuarantinedObjectError
from repro.common.events import EventKind
from repro.common.latch import Latch, LatchMode
from repro.core.locks import LockManager
from repro.core.manager import TransactionManager
from repro.core.outcomes import GRANTED, CommitStatus
from repro.core.permits import PermitTable
from repro.core.semantics import READ, WRITE
from repro.core.sharding import DEFAULT_SHARDS, StripedDependencyGraph
from repro.storage.store import StorageManager


class _ShardState:
    """One shard's latch and its slice of the object-descriptor table."""

    __slots__ = ("index", "latch", "descriptors")

    def __init__(self, index):
        self.index = index
        self.latch = Latch(name=f"shard-{index}")
        self.descriptors = {}  # oid -> ObjectDescriptor


class _ShardedRegistry:
    """:class:`~repro.core.locks.ObjectRegistry` striped across shards.

    Same duck API; each OD lives in the descriptor dict of its object's
    home shard, so every OD access inside a latch scope touches only
    that shard's dict.
    """

    def __init__(self, router, shards):
        self.router = router
        self._shards = shards

    def _bucket(self, oid):
        return self._shards[self.router.shard_of(oid)].descriptors

    def get_or_create(self, oid):
        bucket = self._bucket(oid)
        od = bucket.get(oid)
        if od is None:
            from repro.core.descriptors import ObjectDescriptor

            od = ObjectDescriptor(oid)
            bucket[oid] = od
        return od

    def maybe_get(self, oid):
        return self._bucket(oid).get(oid)

    def release_if_idle(self, oid):
        bucket = self._bucket(oid)
        od = bucket.get(oid)
        if od is not None and od.is_idle():
            del bucket[oid]

    def all_descriptors(self):
        return [
            od
            for shard in self._shards
            for od in shard.descriptors.values()
        ]

    def __len__(self):
        return sum(len(shard.descriptors) for shard in self._shards)


class ShardedTransactionManager(TransactionManager):
    """The ASSET primitive set over sharded control structures."""

    def __init__(
        self,
        n_shards=None,
        storage=None,
        conflicts=None,
        max_transactions=None,
        events=None,
        clock=None,
        group_commit=None,
        failpoint=None,
        admission=None,
        injector=None,
        capacity=256,
    ):
        if storage is None:
            storage = StorageManager(
                n_shards=n_shards or DEFAULT_SHARDS,
                group_commit=group_commit,
                injector=injector,
                capacity=capacity,
            )
        n_shards = storage.n_shards
        super().__init__(
            storage=storage,
            conflicts=conflicts,
            max_transactions=max_transactions,
            events=events,
            clock=clock,
            failpoint=failpoint,
            admission=admission,
        )
        self.n_shards = n_shards
        self.router = storage.router
        self.shards = [_ShardState(index) for index in range(n_shards)]
        # Re-seat the control structures over the stripes.  The permit
        # and lock managers stay the *global* base-class objects — their
        # own bookkeeping (pending requests, the permit index) is only
        # mutated under the mutex or per-transaction, and keeping them
        # global preserves the oracle's exact iteration orders — but
        # every OD they touch now routes through the striped registry.
        self.registry = _ShardedRegistry(self.router, self.shards)
        self.permits = PermitTable(self.registry, events=self.events)
        self.lock_manager = LockManager(
            self.registry,
            self.permits,
            conflicts=self.conflicts,
            events=self.events,
        )
        self.dependencies = StripedDependencyGraph(n_shards)
        self.stats["cross_shard_commits"] = 0
        self.stats["cross_shard_delegations"] = 0
        self._held = threading.local()

    # ------------------------------------------------------------------
    # latch discipline
    # ------------------------------------------------------------------

    def _held_shards(self):
        held = getattr(self._held, "shards", None)
        if held is None:
            held = set()
            self._held.shards = held
        return held

    @contextlib.contextmanager
    def _latched(self, shard_indexes):
        """Hold the X latches of ``shard_indexes`` (ascending, reentrant).

        Only latches this thread does not already hold are acquired; the
        thread-local held set is what lets ``abort`` nest inside
        ``try_commit``'s latch scope over non-reentrant latches.
        """
        held = self._held_shards()
        acquired = []
        for index in sorted(set(shard_indexes)):
            if index in held:
                continue
            self.shards[index].latch.acquire(LatchMode.EXCLUSIVE)
            held.add(index)
            acquired.append(index)
        try:
            yield
        finally:
            for index in reversed(acquired):
                held.discard(index)
                self.shards[index].latch.release(LatchMode.EXCLUSIVE)

    def _all_shards(self):
        return range(self.n_shards)

    def _shards_of_oids(self, oids):
        return {self.router.shard_of(oid) for oid in oids}

    def _shards_of_transaction(self, tid):
        """Every shard a transaction's control state touches: its lock
        footprint, permits it gave or received, and its WAL footprint."""
        shards = set()
        td = self.table.maybe_get(tid)
        if td is not None:
            shards |= self._shards_of_oids(td.locked_object_ids())
        for pd in self.permits.given_by(tid):
            shards.add(self.router.shard_of(pd.oid))
        for pd in self.permits.given_to(tid):
            shards.add(self.router.shard_of(pd.oid))
        shards |= self.storage.footprint_of(tid)
        return shards

    # ------------------------------------------------------------------
    # object operations: one shard latch, no mutex
    # ------------------------------------------------------------------

    def create_object(self, tid, value, name=""):
        oid, shard = self.storage.allocate_object(name=name)
        with self._latched({shard}):
            td = self._active_td(tid)
            self.storage.create_allocated(tid, oid, shard, value)
            od = self.registry.get_or_create(oid)
            self.lock_manager._grant(td, od, WRITE)
            if EventKind.WRITE in self.events.watched:
                self.events.emit(EventKind.WRITE, tid, oid=oid, created=True)
            return oid

    def try_read(self, tid, oid):
        shard = self.router.shard_of(oid)
        try:
            with self._latched({shard}):
                td = self._active_td(tid)
                outcome = self.lock_manager.acquire(td, oid, READ)
                if outcome is not GRANTED:
                    return outcome, None
                value = self.storage.read_object(tid, oid)
                if EventKind.READ in self.events.watched:
                    self.events.emit(EventKind.READ, tid, oid=oid)
                return GRANTED, value
        except QuarantinedObjectError:
            # Escalate outside the latch scope: abort takes the mutex,
            # and mutex-after-latch would invert the lock order.
            self._abort_poisoned(tid, oid)
            raise

    def try_write(self, tid, oid, value):
        shard = self.router.shard_of(oid)
        try:
            with self._latched({shard}):
                td = self._active_td(tid)
                outcome = self.lock_manager.acquire(td, oid, WRITE)
                if outcome is not GRANTED:
                    return outcome
                self.storage.write_object(tid, oid, value)
                if EventKind.WRITE in self.events.watched:
                    self.events.emit(EventKind.WRITE, tid, oid=oid)
                return GRANTED
        except QuarantinedObjectError:
            self._abort_poisoned(tid, oid)
            raise

    def try_operation(self, tid, oid, operation, transform):
        shard = self.router.shard_of(oid)
        try:
            with self._latched({shard}):
                td = self._active_td(tid)
                outcome = self.lock_manager.acquire(td, oid, operation)
                if outcome is not GRANTED:
                    return outcome, None
                value = self.storage.read_object(tid, oid)
                new_value, result = transform(value)
                if new_value is not None:
                    self.storage.write_object(tid, oid, new_value)
                if EventKind.OPERATION in self.events.watched:
                    self.events.emit(
                        EventKind.OPERATION, tid, oid=oid, operation=operation
                    )
                return GRANTED, result
        except QuarantinedObjectError:
            self._abort_poisoned(tid, oid)
            raise

    # ------------------------------------------------------------------
    # control operations: mutex first, then the shard-latch set
    # ------------------------------------------------------------------

    def delegate(self, ti, tj, oids=None):
        with self._mutex:
            if oids is not None:
                involved = self._shards_of_oids(oids)
            else:
                involved = self._shards_of_transaction(ti)
            if len(involved) > 1:
                self.stats["cross_shard_delegations"] += 1
            with self._latched(involved):
                return super().delegate(ti, tj, oids=oids)

    def permit(self, ti, tj=None, oids=None, operations=None):
        with self._mutex:
            if oids is not None:
                involved = self._shards_of_oids(oids)
            else:
                td_i = self.table.get(ti)
                involved = self._shards_of_oids(
                    td_i.locked_object_ids()
                    + self.permits.objects_permitted_to(ti)
                )
            with self._latched(involved):
                return super().permit(
                    ti, tj=tj, oids=oids, operations=operations
                )

    def try_commit(self, tid):
        with self._mutex:
            involved = set()
            for member in self.dependencies.gc_group(tid):
                involved |= self._shards_of_transaction(member)
            with self._latched(involved):
                outcome = super().try_commit(tid)
            # Count commits, not attempts: a polling driver retries a
            # blocked commit many times.
            if len(involved) > 1 and outcome.status is CommitStatus.COMMITTED:
                self.stats["cross_shard_commits"] += 1
            return outcome

    def try_prepare(self, tid, gid=0, coordinator="", sites=()):
        with self._mutex:
            involved = set()
            for member in self.dependencies.gc_group(tid):
                involved |= self._shards_of_transaction(member)
            with self._latched(involved):
                return super().try_prepare(
                    tid, gid=gid, coordinator=coordinator, sites=sites
                )

    def abort(self, tid, reason=""):
        # The closure can reach transactions (and objects) anywhere, and
        # aborts are the rare path: latch everything.
        with self._mutex:
            with self._latched(self._all_shards()):
                return super().abort(tid, reason=reason)

    def rollback_to(self, tid, savepoint):
        with self._mutex:
            with self._latched(self.storage.footprint_of(tid)):
                return super().rollback_to(tid, savepoint)

    def sync(self):
        with self._mutex:
            with self._latched(self._all_shards()):
                return super().sync()

    def checkpoint(self, truncate=False):
        with self._mutex:
            with self._latched(self._all_shards()):
                return super().checkpoint(truncate=truncate)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def shard_census(self):
        """Per-shard control-structure population (tests, obs gauges)."""
        return [
            {
                "shard": shard.index,
                "descriptors": len(shard.descriptors),
                "router_entries": sum(
                    1
                    for placed in self.router.snapshot().values()
                    if placed == shard.index
                ),
            }
            for shard in self.shards
        ]
