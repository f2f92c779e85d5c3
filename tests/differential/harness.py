"""The differential-conformance harness (ISSUE 7).

Three layers of reusable machinery:

* **Runtime factories** — every runtime the battery knows, constructed
  uniformly, with a closer for the threaded ones.  Conformance suites
  parametrize over these names (``tests/integration`` wires them into
  the model battery; ``test_conformance_pairs`` runs runtime *pairs*).
* **Workload shapes** — deterministic driver programs exercising the
  ASSET primitive surface: transfers, read→write upgrades, delegation
  chains (cross-shard by construction once the key space exceeds the
  shard count), permit-mediated cooperative writes, wrong-order lock
  deadlocks (victim aborts), GC groups, savepoint/rollback, and nested
  children.  A shape takes a runtime and drives it only through the
  paper-style driver API, so any runtime can execute it.
* **Record/replay** — run a shape on the cooperative oracle under a
  recording :class:`~repro.chaos.explorer.ScheduleController`, then
  replay the recorded interleaving on a deterministic peer and compare
  the two ACTA histories byte for byte.
"""

from __future__ import annotations

from repro.chaos.explorer import ScheduleController
from repro.acta.history import HistoryRecorder
from repro.common.codec import decode_int, encode_int
from repro.core.dependency import DependencyType
from repro.core.sharded import ShardedTransactionManager
from repro.runtime import CooperativeRuntime, ShardedRuntime, ThreadedRuntime

RUNTIME_NAMES = ["coop", "threaded", "sharded", "parallel-sharded"]
DETERMINISTIC = ("coop", "sharded")


def make_runtime(name, seed=None, schedule=None, n_shards=4):
    """Build a runtime by name; returns ``(runtime, closer)``."""
    if name == "coop":
        return CooperativeRuntime(seed=seed, schedule=schedule), _noop
    if name == "sharded":
        return (
            ShardedRuntime(n_shards=n_shards, seed=seed, schedule=schedule),
            _noop,
        )
    if name == "threaded":
        runtime = ThreadedRuntime(watchdog_interval=0.01, poll_timeout=0.002)
        return runtime, runtime.close
    if name == "parallel-sharded":
        runtime = ThreadedRuntime(
            ShardedTransactionManager(n_shards=n_shards),
            watchdog_interval=0.01, poll_timeout=0.05,
        )
        return runtime, runtime.close
    raise ValueError(f"unknown runtime {name!r}")


def _noop():
    return None


# ---------------------------------------------------------------------------
# shared helpers (moved from tests/integration/test_runtime_conformance.py)
# ---------------------------------------------------------------------------


def make_counters(runtime, count):
    def setup(tx):
        oids = []
        for index in range(count):
            oids.append(
                (yield tx.create(encode_int(0), name=f"c{index}"))
            )
        return oids

    return runtime.run(setup).value


def read_counter(runtime, oid):
    def body(tx):
        return decode_int((yield tx.read(oid)))

    return runtime.run(body).value


def incrementer(oid, fail=False):
    def body(tx):
        value = decode_int((yield tx.read(oid)))
        yield tx.write(oid, encode_int(value + 1))
        if fail:
            yield tx.abort()
        return value + 1

    return body


# ---------------------------------------------------------------------------
# workload shapes
# ---------------------------------------------------------------------------


def _transfer(src, dst):
    def body(tx):
        taken = decode_int((yield tx.read(src)))
        yield tx.write(src, encode_int(taken - 1))
        landed = decode_int((yield tx.read(dst)))
        yield tx.write(dst, encode_int(landed + 1))
        return taken

    return body


def shape_transfers(rt):
    """Overlapping transfer pairs across many keys (cross-shard for any
    shard count > 1)."""
    oids = make_counters(rt, 6)
    tids = [
        rt.spawn(_transfer(oids[i], oids[(i + 2) % 6])) for i in range(6)
    ]
    rt.commit_all(tids)


def shape_upgrade_contention(rt):
    """Everyone reads one hot object, then upgrades to write: upgrade
    deadlocks, victim aborts, survivors commit."""
    [hot] = make_counters(rt, 1)
    tids = [rt.spawn(incrementer(hot)) for __ in range(4)]
    rt.commit_all(tids)


def shape_delegation_chain(rt):
    """t1 updates objects scattered over the key space, delegates all to
    t2, which updates more and delegates to t3, which commits the lot —
    a delegation chain that crosses shard boundaries by construction."""
    oids = make_counters(rt, 5)

    def worker(tx, mine):
        for oid in mine:
            value = decode_int((yield tx.read(oid)))
            yield tx.write(oid, encode_int(value + 10))

    t1 = rt.spawn(worker, args=(oids[:2],))
    t2 = rt.spawn(worker, args=(oids[2:4],))
    t3 = rt.spawn(worker, args=(oids[4:],))
    # Drain execution, then chain the delegations at the driver level.
    for tid in (t1, t2, t3):
        rt.wait(tid)
    rt.manager.delegate(t1, t2)
    rt.manager.delegate(t2, t3)
    rt.commit(t3)
    # t1/t2 delegated everything away; their commits are now trivial.
    rt.commit_all([t1, t2])


def shape_permit_cooperation(rt):
    """t1 write-locks, permits t2, t2 writes through the suspension;
    both commit (the section 2.2 cooperative-write pattern)."""
    oids = make_counters(rt, 3)

    def first(tx):
        for oid in oids:
            yield tx.write(oid, encode_int(5))
        yield tx.permit()  # any transaction, any operation

    def second(tx):
        for oid in oids:
            value = decode_int((yield tx.read(oid)))
            yield tx.write(oid, encode_int(value + 1))

    t1 = rt.spawn(first)
    rt.wait(t1)
    t2 = rt.spawn(second)
    rt.commit_all([t2, t1])


def shape_deadlock_pair(rt):
    """Wrong-order write locks: a genuine deadlock, detector victim."""
    oids = make_counters(rt, 2)

    def locker(tx, first, second):
        yield tx.write(first, encode_int(1))
        yield tx.write(second, encode_int(2))

    t1 = rt.spawn(locker, args=(oids[0], oids[1]))
    t2 = rt.spawn(locker, args=(oids[1], oids[0]))
    rt.commit_all([t1, t2])


def shape_gc_group(rt):
    """A three-member GC group formed at the driver level; group commit
    lands them atomically (one commit record naming all)."""
    oids = make_counters(rt, 3)
    tids = [rt.spawn(incrementer(oids[i])) for i in range(3)]
    rt.manager.form_dependency(DependencyType.GC, tids[0], tids[1])
    rt.manager.form_dependency(DependencyType.GC, tids[1], tids[2])
    rt.commit(tids[0])


def shape_savepoint_rollback(rt):
    """Partial rollback inside a program (tokens are global LSNs — they
    appear in PARTIAL_ROLLBACK events, so LSN allocation must agree)."""
    oids = make_counters(rt, 2)

    def body(tx):
        yield tx.write(oids[0], encode_int(1))
        mark = yield tx.savepoint()
        yield tx.write(oids[0], encode_int(2))
        yield tx.write(oids[1], encode_int(3))
        yield tx.rollback_to(mark)
        yield tx.write(oids[1], encode_int(4))
        return mark

    t1 = rt.spawn(body)
    rt.commit(t1)


def shape_nested_children(rt):
    """Parents initiate children mid-program; waits and cascades."""
    oids = make_counters(rt, 2)

    def child(tx, oid):
        value = decode_int((yield tx.read(oid)))
        yield tx.write(oid, encode_int(value + 1))

    def parent(tx):
        kid = yield tx.initiate(child, args=(oids[0],))
        yield tx.begin(kid)
        ok = yield tx.wait(kid)
        yield tx.write(oids[1], encode_int(7 if ok else 0))
        yield tx.commit(kid)

    t1 = rt.spawn(parent)
    rt.commit(t1)


def shape_aborted_delegation(rt):
    """Delegate, then abort the delegatee: undo must follow the moved
    responsibility (re-attribution on both engines' logs)."""
    oids = make_counters(rt, 4)

    def writer(tx, mine):
        for oid in mine:
            yield tx.write(oid, encode_int(99))

    t1 = rt.spawn(writer, args=(oids[:2],))
    t2 = rt.spawn(writer, args=(oids[2:],))
    for tid in (t1, t2):
        rt.wait(tid)
    rt.manager.delegate(t1, t2)
    rt.abort(t2)
    rt.commit(t1)


SHAPES = {
    "transfers": shape_transfers,
    "upgrade-contention": shape_upgrade_contention,
    "delegation-chain": shape_delegation_chain,
    "permit-cooperation": shape_permit_cooperation,
    "deadlock-pair": shape_deadlock_pair,
    "gc-group": shape_gc_group,
    "savepoint-rollback": shape_savepoint_rollback,
    "nested-children": shape_nested_children,
    "aborted-delegation": shape_aborted_delegation,
}


# ---------------------------------------------------------------------------
# record / replay
# ---------------------------------------------------------------------------


def canonical_history(events):
    """The byte string two histories are compared by."""
    return "\n".join(repr(event) for event in events).encode()


def run_shape(runtime, shape):
    """Drive ``shape`` on ``runtime``; return its canonical history."""
    recorder = HistoryRecorder(runtime.manager)
    shape(runtime)
    return canonical_history(recorder.events)


def record_on_oracle(shape, seed):
    """Run ``shape`` on the cooperative oracle under a recording
    schedule; return ``(history_bytes, recorded_choices)``."""
    controller = ScheduleController(seed=seed)
    runtime = CooperativeRuntime(schedule=controller)
    history = run_shape(runtime, shape)
    return history, controller.recorded


def replay_on(name, shape, choices, n_shards=4):
    """Replay a recorded schedule on a deterministic runtime by name."""
    controller = ScheduleController(choices=choices)
    runtime, closer = make_runtime(
        name, schedule=controller, n_shards=n_shards
    )
    try:
        return run_shape(runtime, shape)
    finally:
        closer()
