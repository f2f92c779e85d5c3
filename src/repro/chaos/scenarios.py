"""Chaos scenarios: deterministic workloads with declared intent.

A scenario is a named, deterministic driver over a
:class:`~repro.chaos.stack.ChaosStack`.  Determinism is load-bearing: the
crash sweep replays the same workload once per numbered I/O step, and a
fault plan is only a reproduction recipe if step *k* always lands on the
same system call.  Scenarios therefore use the cooperative runtime's
round-robin scheduler (or an explicit schedule controller) and never
consult wall clocks or OS randomness.

Each driver records its *intent* on the stack as it goes — dependencies
before forming them, acknowledgements as the system issues them, the
expected clean-run state at the end — which is what lets the oracles
judge a crashed, half-finished, or deliberately mutated run against what
the scenario meant to happen.

Every scenario registers in the one registry of
:mod:`repro.chaos.sweep`; the sweeps, the exploration tests, and the
``repro.chaos.replay`` command line all resolve scenarios through it.
:class:`ScenarioSpec` is also the harness's *single-site kind*: how a
:class:`~repro.chaos.stack.ChaosStack` run is built, driven, probed and
judged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.acta.checker import (
    check_abort_dependencies,
    check_commit_order,
    check_group_atomicity,
)
from repro.chaos.stack import ChaosStack, read_state
from repro.chaos.sweep import (
    ScenarioBrokenError,
    get,
    judge_recovery,
    names,
    register,
    registers,
)
from repro.common.errors import RetryExhausted, TransientIOError
from repro.core.dependency import DependencyType
from repro.storage.log import FlushCoalescer


@dataclass(frozen=True)
class ScenarioSpec:
    """A named deterministic workload plus its stack configuration."""

    name: str
    description: str
    drive: object  # callable(stack)
    group_commit: object = None  # callable() -> FlushCoalescer, or None
    # None, or a dict of repro.resilience.install_resilience overrides —
    # the stack then carries a wired DeadlineTable/Watchdog/FlushHealth
    # kit on ``stack.resilience``.
    resilience: object = None
    capacity: int = 256  # buffer-pool frames (per shard)
    n_shards: int = None  # None: one shard, the flat manager; a count: sharded

    kind = "single-site"
    # A transient fault the model could not absorb — TransientIOError
    # with no retry policy, RetryExhausted with a spent budget — reaches
    # the client; the run is still power-cut, restarted and judged.
    surfaced = (TransientIOError, RetryExhausted)

    def build(self, plan=None, seed=None, schedule=None, retry=None):
        """A fresh stack; ``retry`` is the total-attempt budget of the
        :class:`~repro.resilience.RetryPolicy` its drivers commit under
        (``None``: no policy, faults surface raw)."""
        stack = ChaosStack(
            plan=plan,
            group_commit=self.group_commit() if self.group_commit else None,
            seed=seed,
            schedule=schedule,
            resilience=self.resilience,
            n_shards=self.n_shards,
            capacity=self.capacity,
        )
        if retry is not None:
            from repro.resilience import RetryPolicy

            stack.retry_policy = RetryPolicy(
                max_attempts=retry, clock=stack.manager.clock
            )
        return stack

    def probed(self, verdict):
        """A clean run must land in the state the scenario declared."""
        stack = verdict.system
        expected = stack.intent.expected_clean
        if not (verdict.plan.is_noop and expected):
            return
        actual = read_state(stack.storage)
        wrong = {
            oid: (actual.get(oid), want)
            for oid, want in expected.items()
            if actual.get(oid) != want
        }
        if wrong:
            raise ScenarioBrokenError(
                f"{self.name}: clean run deviates from declared state:"
                f" {wrong}"
            )

    def judge(self, verdict):
        verdict.judgment = "recovery"
        judge_recovery(verdict)


scenario = registers(ScenarioSpec)


# ---------------------------------------------------------------------------
# program bodies
# ---------------------------------------------------------------------------


def _writer(tx, oid, value):
    yield tx.write(oid, value)


def _double_writer(tx, oid1, value1, oid2, value2):
    yield tx.write(oid1, value1)
    yield tx.write(oid2, value2)


def _read_then_write(tx, read_oid, write_oid, value):
    yield tx.read(read_oid)
    yield tx.write(write_oid, value)


# ---------------------------------------------------------------------------
# EX10: the section 4.2 commit/abort machinery, end to end
# ---------------------------------------------------------------------------


@scenario(
    "ex10_commit_abort",
    "GC group commit, AD cascade, delegation survival, explicit abort,"
    " CD-ordered commits, and a mid-run page flush (EX10 scenario)",
)
def ex10_commit_abort(stack):
    rt, manager = stack.runtime, stack.manager
    names_ = ["a", "b", "c", "d", "e", "f", "g", "h"]
    oids = {}

    def setup(tx):
        for name in names_:
            oids[name] = yield tx.create(name.encode() + b"0")

    result = rt.run(setup)
    stack.note_ack(result.tid)
    stack.intent.oids = dict(oids)
    a, b, c, d, e, f, g, h = (oids[n] for n in names_)

    # A GC pair: t1 and t2 commit (or abort) as one unit.
    t1 = rt.spawn(_writer, (a, b"a1"))
    t2 = rt.spawn(_writer, (b, b"b1"))
    stack.intend_dependency(DependencyType.GC, t1, t2)
    manager.form_dependency(DependencyType.GC, t1, t2)

    # Delegation: t3 writes c and f, hands c to t2, then aborts — the
    # delegated update must survive t3's abort and commit with t2.
    t3 = rt.spawn(_double_writer, (c, b"c1", f, b"f1"))
    rt.wait(t3)
    stack.intend_delegation(t3, t2, (c,))
    manager.delegate(t3, t2, oids={c})
    manager.abort(t3)  # undoes f only; c now rides with t2

    # An AD chain: aborting t4 must take t5 down with it.
    t4 = rt.spawn(_writer, (d, b"d1"))
    t5 = rt.spawn(_writer, (e, b"e1"))
    rt.wait(t4)
    rt.wait(t5)
    stack.intend_dependency(DependencyType.AD, t4, t5)
    manager.form_dependency(DependencyType.AD, t4, t5)

    # A mid-run page write-back, as any real system performs under memory
    # pressure: dirty pages carrying *uncommitted* updates head to disk,
    # which is exactly the window the WAL rule exists for.
    stack.storage.pool.flush_all()

    manager.abort(t4)  # cascades to t5 over the AD edge

    stack.commit(t1, t2)  # the GC group commits as one unit

    # A CD pair committed in the required order.
    t6 = rt.spawn(_writer, (g, b"g1"))
    t7 = rt.spawn(_writer, (h, b"h1"))
    stack.intend_dependency(DependencyType.CD, t6, t7)
    manager.form_dependency(DependencyType.CD, t6, t7)
    stack.commit(t6)
    stack.commit(t7)

    stack.intent.expected_clean = {
        a: b"a1",
        b: b"b1",
        c: b"c1",  # delegated to (committed) t2 before t3's abort
        d: b"d0",  # undone by t4's abort
        e: b"e0",  # undone by the AD cascade
        f: b"f0",  # undone by t3's abort
        g: b"g1",
        h: b"h1",
    }


# ---------------------------------------------------------------------------
# Group commit: the enrollment/deferral window
# ---------------------------------------------------------------------------

GC_BURST_COMMITS = 6


def _group_commit_drive(stack):
    rt = stack.runtime
    oids = []

    def setup(tx):
        for __ in range(GC_BURST_COMMITS):
            oids.append((yield tx.create(b"w0")))

    result = rt.run(setup)
    stack.storage.sync_log()  # drain the batch: setup is durable
    stack.note_ack(result.tid)
    stack.intent.oids = {f"w{i}": oid for i, oid in enumerate(oids)}

    for index, oid in enumerate(oids):
        value = b"w%d" % (index + 1)
        tid = rt.spawn(_writer, (oid, value))
        stack.commit(tid)

    stack.storage.sync_log()  # end-of-burst drain
    stack.intent.expected_clean = {
        oid: b"w%d" % (index + 1) for index, oid in enumerate(oids)
    }


def make_group_commit_scenario(batch):
    """Register (or fetch) the burst scenario for one batch size."""
    name = f"group_commit_batch{batch}"
    if name not in names():
        register(ScenarioSpec(
            name=name,
            description=(
                f"{GC_BURST_COMMITS} sequential commits through a"
                f" FlushCoalescer(max_commits={batch}): every crash point in"
                f" the enrollment window loses the whole pending batch"
            ),
            drive=_group_commit_drive,
            group_commit=lambda: FlushCoalescer(max_commits=batch),
        ))
    return get(name)


# Default registration for the replay CLI.
for _batch in (1, 2, 3, 4):
    make_group_commit_scenario(_batch)


# ---------------------------------------------------------------------------
# The checkpoint window: where the WAL rule earns its keep
# ---------------------------------------------------------------------------


@scenario(
    "checkpoint_window",
    "a sharp (truncating) checkpoint followed by fresh updates and a"
    " mid-run page write-back: once the log is truncated, redo can no"
    " longer heal a page flushed ahead of its log records, so every"
    " crash in this window tests the write-ahead rule itself",
)
def checkpoint_window(stack):
    rt, manager = stack.runtime, stack.manager
    oids = {}

    def setup(tx):
        oids["a"] = yield tx.create(b"a0")
        oids["b"] = yield tx.create(b"b0")

    result = rt.run(setup)
    stack.note_ack(result.tid)
    stack.intent.oids = dict(oids)
    a, b = oids["a"], oids["b"]

    # Quiescent: flush all pages and truncate the log.  From here on the
    # durable log no longer holds the objects' creation history — the
    # oracle's replay starts from this declared baseline, and the acks so
    # far are absorbed into it (their commit records leave the log).
    # Intent precedes the operation so a crash *inside* the checkpoint is
    # still judged correctly.
    stack.intent.baseline = {a: b"a0", b: b"b0"}
    stack.note_truncation()
    stack.storage.checkpoint(truncate=True)

    t1 = rt.spawn(_writer, (a, b"a1"))
    t2 = rt.spawn(_writer, (b, b"b1"))
    rt.wait(t1)
    rt.wait(t2)

    # The dangerous moment: dirty pages carrying *uncommitted* post-
    # checkpoint updates head to disk.  With the WAL rule intact, the
    # log is forced first and any crash can undo them; without it, the
    # truncated log cannot explain what the crash leaves behind.
    stack.storage.pool.flush_all()

    stack.commit(t1)
    manager.abort(t2)

    stack.intent.expected_clean = {a: b"a1", b: b"b0"}


# ---------------------------------------------------------------------------
# The steal window: a pool smaller than the working set
# ---------------------------------------------------------------------------

STEAL_POOL_FRAMES = 3


def _fat(tag):
    """A value that fills more than half a page: one object per page."""
    return tag * 1100


def _large(tag):
    """A value spanning three pages (a chunked large object)."""
    return tag * 4500


def _create_then_write(tx, value, oid, new_value):
    yield tx.create(value)
    yield tx.write(oid, new_value)


def _steal_window_drive(stack):
    rt, manager = stack.runtime, stack.manager
    oids = {}

    def setup(tx):
        for name in ("a", "b", "c", "d"):
            oids[name] = yield tx.create(_fat(name.encode() + b"0"))
        oids["big"] = yield tx.create(_large(b"B0"))

    result = rt.run(setup)
    stack.note_ack(result.tid)
    stack.intent.oids = dict(oids)
    a, b, c, d, big = (oids[n] for n in ("a", "b", "c", "d", "big"))

    # t2 rewrites c and the large object and stays uncommitted: the
    # rewrite alone spans more pages than the pool has frames, so its
    # dirty pages are stolen (evicted to disk) while it is still running.
    t2 = rt.spawn(_double_writer, (c, _fat(b"c2"), big, _large(b"B2")))
    rt.wait(t2)
    # t1 completes over other pages, stealing what t2 still had cached.
    t1 = rt.spawn(_double_writer, (a, _fat(b"a1"), b, _fat(b"b1")))
    rt.wait(t1)
    # t3 creates an object and overwrites d; it is never resolved — the
    # power cut that ends every run finds it in flight.
    t3 = rt.spawn(_create_then_write, (_fat(b"e3"), d, _fat(b"d3")))
    rt.wait(t3)

    # Undo of stolen pages: every before image is installed into a page
    # fetched back from disk, stealing t1's and t3's uncommitted pages to
    # make room.
    manager.abort(t2)
    # Last, so that the run's final flush is a commit's: a lied *final*
    # fsync then only makes this ack hollow.
    stack.commit(t1)

    stack.intent.expected_clean = {
        a: _fat(b"a1"),
        b: _fat(b"b1"),
        c: _fat(b"c0"),  # undone by t2's abort
        big: _large(b"B0"),  # undone by t2's abort
        # d and t3's new object hold t3's uncommitted values while the
        # run is live and are undone by recovery: not declared here.
    }


for _name, _shards, _where in (
    ("steal_window", None, "the flat WAL"),
    ("steal_window_sharded", 2, "two WAL segments"),
):
    register(ScenarioSpec(
        name=_name,
        description=(
            f"one-object-per-page values and a three-page large object"
            f" through a {STEAL_POOL_FRAMES}-frame pool on {_where}: one"
            " transaction commits, one aborts after its dirty pages were"
            " stolen, one is in flight at the crash — every eviction of an"
            " uncommitted page tests the page-LSN / durable-LSN gate"
        ),
        drive=_steal_window_drive,
        capacity=STEAL_POOL_FRAMES,
        n_shards=_shards,
    ))


# ---------------------------------------------------------------------------
# The checkpoint mark: where restart redo may begin
# ---------------------------------------------------------------------------


def _after_last_pool_flush(storage, action):
    """Run ``action`` once, between the next checkpoint's (last) pool
    flush and its marker — the interleaving a concurrent writer could
    produce, driven single-threaded."""
    pool = storage.shards[-1].pool
    flush_all = pool.flush_all

    def flush_then_act():
        flush_all()
        del pool.flush_all  # one shot: back to the class's method
        action()

    pool.flush_all = flush_then_act


def _checkpoint_mark_drive(stack):
    rt, manager = stack.runtime, stack.manager
    oids = {}

    def setup(tx):
        for name in ("a", "b", "c", "d", "e"):
            oids[name] = yield tx.create(name.encode() + b"0")

    result = rt.run(setup)
    stack.note_ack(result.tid)
    stack.intent.oids = dict(oids)
    a, b, c, d, e = (oids[n] for n in ("a", "b", "c", "d", "e"))

    # Below the mark: t1 commits (b is never written again); t2 stays
    # active across the checkpoint, which flushes its uncommitted page —
    # a loser to undo from a before image older than where redo starts.
    stack.commit(rt.spawn(_double_writer, (a, b"a1", b, b"b1")))
    t2 = rt.spawn(_writer, (e, b"e2"))
    rt.wait(t2)

    # A log-keeping checkpoint, with a commit landing after the pool
    # flush and before the marker: its page is dirty again and only the
    # log holds it, so the marker's mark must not cover it.
    _after_last_pool_flush(
        stack.storage, lambda: stack.commit(rt.spawn(_writer, (c, b"c3")))
    )
    manager.checkpoint()

    # Above the mark: what a restart has to repeat.  The write-back in
    # between, torn (its checksum no longer matches), takes b with it —
    # last written below the mark and below the restart point, so only
    # redo under the void mark, which reads the log's prefix, brings it
    # back.
    def grow(tx):
        oids["f"] = yield tx.create(b"f4")
        yield tx.write(d, b"d4")

    stack.commit(rt.spawn(grow))
    stack.intent.oids = dict(oids)
    for shard in stack.storage.shards:
        shard.pool.flush_all()
    stack.commit(rt.spawn(_writer, (a, b"a5")))

    stack.intent.expected_clean = {
        a: b"a5",
        b: b"b1",
        c: b"c3",
        d: b"d4",
        oids["f"]: b"f4",
        # e holds t2's uncommitted value while the run is live and is
        # undone by recovery: not declared here.
    }


for _name, _shards, _where in (
    ("checkpoint_mark", None, "the flat WAL"),
    ("checkpoint_mark_sharded", 2, "two WAL segments, one marker each"),
):
    register(ScenarioSpec(
        name=_name,
        description=(
            f"a checkpoint that keeps the log ({_where}): commits below"
            " the mark, a transaction active across it, a commit landing"
            " between the pool flush and the marker, commits above it —"
            " restart redoes from the last durable marker's redo_lsn,"
            " undoes below it, and must not skip the interleaved commit"
        ),
        drive=_checkpoint_mark_drive,
        n_shards=_shards,
    ))


# ---------------------------------------------------------------------------
# Schedule exploration: contention, deadlock victims, and cascades
# ---------------------------------------------------------------------------


@scenario(
    "deadlock_cascade",
    "two transactions deadlock over x/y (GC-linked, with an AD dependent)"
    " while two more race on a third object; every interleaving must keep"
    " group atomicity and abort propagation",
)
def deadlock_cascade(stack):
    rt, manager = stack.runtime, stack.manager
    oids = {}

    def setup(tx):
        for name in ("x", "y", "z", "p"):
            oids[name] = yield tx.create(name.encode() + b"0")

    result = rt.run(setup)
    stack.note_ack(result.tid)
    stack.intent.oids = dict(oids)
    x, y, z, p = (oids[n] for n in ("x", "y", "z", "p"))

    # The classic crossed pair: t1 reads x then writes y; t2 reads y then
    # writes x.  Whatever the round order, they deadlock; the detector
    # picks a victim, and the GC edge must drag the survivor down too.
    t1 = rt.spawn(_read_then_write, (x, y, b"y1"))
    t2 = rt.spawn(_read_then_write, (y, x, b"x2"))
    stack.intend_dependency(DependencyType.GC, t1, t2)
    manager.form_dependency(DependencyType.GC, t1, t2)

    # t3 hangs off t1 by an AD edge: t1's abort must propagate.
    t3 = rt.spawn(_writer, (p, b"p3"))
    stack.intend_dependency(DependencyType.AD, t1, t3)
    manager.form_dependency(DependencyType.AD, t1, t3)

    # t4 and t5 race write-write on z; the round order decides who wins
    # the lock first, but both must eventually commit.
    t4 = rt.spawn(_writer, (z, b"z4"))
    t5 = rt.spawn(_writer, (z, b"z5"))

    outcomes = rt.commit_all([t1, t2, t3, t4, t5])
    for tid, committed in outcomes.items():
        if committed:
            stack.note_ack(tid)
    return outcomes


# ---------------------------------------------------------------------------
# Resilience: leases, degradation, and retry under transient faults
# ---------------------------------------------------------------------------


@scenario(
    "lease_expiry_mid_delegation",
    "a delegator under a heartbeat lease hands an update to a delegatee"
    " and then crashes silently (stops heartbeating); the watchdog must"
    " reap the delegator at lease expiry and orphan-abort the delegatee"
    " in the same scan, while an unrelated healthy transaction commits",
    resilience={"scan_interval": 4},
)
def lease_expiry_mid_delegation(stack):
    rt, manager = stack.runtime, stack.manager
    res = stack.resilience
    oids = {}

    def setup(tx):
        for name in ("a", "b", "c"):
            oids[name] = yield tx.create(name.encode() + b"0")

    setup_tid = rt.spawn(setup)
    rt.wait(setup_tid)
    stack.commit(setup_tid)
    stack.intent.oids = dict(oids)
    a, b, c = oids["a"], oids["b"], oids["c"]

    # t1, the delegator, works under a heartbeat lease...
    t1 = rt.spawn(_writer, (a, b"a1"))
    res.deadlines.grant_lease(t1, duration=64)
    rt.wait(t1)
    # ...and hands its update to a delegatee t2.
    t2 = rt.spawn(_writer, (b, b"b1"))
    rt.wait(t2)
    stack.intend_delegation(t1, t2, (a,))
    manager.delegate(t1, t2, oids={a})

    # t1 now dies silently: no heartbeat, no commit, no abort.  The
    # watchdog's deterministic time travel jumps the logical clock to
    # the lease expiry, reaps t1, and — because the DELEGATE event made
    # t1 the guardian of t2 — orphan-aborts the delegatee in the same
    # scan (t2 holds no lease of its own).
    res.watchdog.on_stall()

    # An unrelated, healthy transaction is untouched and commits.
    t3 = rt.spawn(_writer, (c, b"c1"))
    stack.commit(t3)

    stack.intent.expected_clean = {
        a: b"a0",  # delegated to t2, undone by the orphan abort
        b: b"b0",  # undone by the orphan abort
        c: b"c1",
    }


COALESCER_DEGRADE_COMMITS = 8


@scenario(
    "coalescer_degrade",
    f"{COALESCER_DEGRADE_COMMITS} sequential commits through a"
    " FlushCoalescer(max_commits=2) wearing a FlushHealth breaker"
    " (degrade_after=2, repromote_after=2): planned lying fsyncs are"
    " detected by the durable-count audit, trip the breaker into"
    " synchronous per-commit flushing, and a healthy window re-promotes",
    group_commit=lambda: FlushCoalescer(max_commits=2),
    resilience={"degrade_after": 2, "repromote_after": 2},
)
def coalescer_degrade(stack):
    rt = stack.runtime
    oids = []

    def setup(tx):
        for __ in range(COALESCER_DEGRADE_COMMITS):
            oids.append((yield tx.create(b"v0")))

    setup_tid = rt.spawn(setup)
    rt.wait(setup_tid)
    stack.commit(setup_tid)
    stack.storage.sync_log()  # drain the batch: setup is durable
    stack.intent.oids = {f"v{i}": oid for i, oid in enumerate(oids)}

    for index, oid in enumerate(oids):
        value = b"v%d" % (index + 1)
        tid = rt.spawn(_writer, (oid, value))
        stack.commit(tid)

    stack.storage.sync_log()  # end-of-burst drain
    stack.intent.expected_clean = {
        oid: b"v%d" % (index + 1) for index, oid in enumerate(oids)
    }


@scenario(
    "retry_saga",
    "a two-component saga (with a compensation) whose every commit runs"
    " under the stack's retry policy: a transient log-flush fault is"
    " absorbed by one retry, while a zero-budget policy surfaces"
    " RetryExhausted — the retry-until-budget-exhausted workload",
)
def retry_saga(stack):
    from repro.models.saga import Saga, run_saga

    rt = stack.runtime
    oids = {}

    def setup(tx):
        oids["a"] = yield tx.create(b"a0")
        oids["b"] = yield tx.create(b"b0")

    setup_tid = rt.spawn(setup)
    rt.wait(setup_tid)
    stack.commit(setup_tid)
    stack.intent.oids = dict(oids)
    a, b = oids["a"], oids["b"]

    saga = Saga(retry=stack.retry_policy)
    saga.step(
        _writer, args=(a, b"a1"),
        compensation=_writer, compensation_args=(a, b"a0"),
        name="ta",
    )
    saga.step(_writer, args=(b, b"b1"), name="tb")
    outcome = run_saga(rt, saga)

    # Acks for every commit the saga drove (components, then any
    # compensations).  Noted after the fact — sound, because transient
    # faults never crash the process mid-saga.
    for tid in outcome.step_tids[: outcome.completed_steps]:
        stack.note_ack(tid)
    for ct in outcome.compensation_tids:
        stack.note_ack(ct)

    if outcome.committed:
        stack.intent.expected_clean = {a: b"a1", b: b"b1"}
    else:
        stack.intent.expected_clean = {a: b"a0", b: b"b0"}


def live_violations(stack):
    """The live (no-crash) oracle: ACTA properties over the recorded
    history with the scenario's *intended* dependency edges.

    Used by the schedule explorer after driving a scenario to completion
    — a mutated primitive that silently dropped an edge shows up here,
    because the intent list still carries it.
    """
    violations = []
    recorder = stack.recorder
    deps = stack.intent.dependencies
    for ti, fate_i, tj, fate_j in check_group_atomicity(recorder, deps):
        violations.append(
            f"group-atomicity: GC pair split — {ti!r} is {fate_i},"
            f" {tj!r} is {fate_j}"
        )
    for ti, tj in check_abort_dependencies(recorder, deps):
        violations.append(
            f"abort-dependency: AD({ti!r} -> {tj!r}) — {ti!r} aborted"
            f" but {tj!r} committed"
        )
    for ti, tj in check_commit_order(recorder, deps):
        violations.append(
            f"commit-order: CD({ti!r} -> {tj!r}) — {tj!r} committed first"
        )
    return violations
