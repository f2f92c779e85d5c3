"""Wiring: narrow-kind subscriptions onto the existing buses and hooks.

The observability layer never sits *in* a code path; it hangs off the
seams the earlier PRs already cut:

* the manager's :class:`~repro.common.events.EventBus` (narrow-kind
  subscriptions, so unwatched hot-path kinds — READ/WRITE — still cost
  one set-membership test);
* the optional ``metrics`` attributes on
  :class:`~repro.core.manager.TransactionManager`,
  :class:`~repro.storage.log.WriteAheadLog`, and
  :class:`~repro.net.fabric.NetworkFabric` (a single ``is None`` check
  when detached);
* pull collectors over subsystems that keep their own counters (the
  resilience watchdog's containment stats, the fabric's delivery
  stats).

:func:`install_observability` builds an :class:`ObservabilityKit` and
attaches it to whatever it is given; the kit is also what the replay
CLI's ``--metrics-out`` / ``--trace-out`` flags instantiate.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

from repro.common.events import EventKind
from repro.obs.metrics import MetricsRegistry, ScopedMetrics
from repro.obs.spans import SpanBuilder

__all__ = ["EventMetrics", "ObservabilityKit", "install_observability"]


# The manager methods whose logical-tick latency is recorded, as
# ``primitive.<name>.ticks`` (``try_commit`` is the ``commit`` primitive).
PRIMITIVES = (
    "initiate", "delegate", "permit", "form_dependency",
    "try_commit", "try_prepare", "abort",
)


def _observed(method, clock, metrics, metric_name):
    """Bound ``method``, recording its logical-tick latency per call.

    The latency is the clock-tick distance across the call: every event
    emission ticks the shared clock, so the distance counts the work the
    primitive set in motion, exactly reproducibly.  Bound onto the
    manager *instance* by :meth:`ObservabilityKit.attach_manager`, so a
    manager with no kit pays not even a frame, and the manager's own
    nested calls (``self.abort`` inside a commit) are observed like any
    caller's.  The histogram is created by the first call: a primitive
    never invoked leaves no empty series in the snapshot.
    """
    histogram = None

    @functools.wraps(method)
    def observed(*args, **kwargs):
        nonlocal histogram
        if histogram is None:
            histogram = metrics.histogram(metric_name)
        start = clock.peek()
        try:
            return method(*args, **kwargs)
        finally:
            histogram.observe(clock.peek() - start)

    return observed


class EventMetrics:
    """The event-bus half of the metric set: a narrow-kind subscriber.

    Folds the manager's lifecycle events into counters and tick
    histograms: initiate→begin admission latency, commit/abort
    request→terminal latency, whole-transaction lifetimes, lock-blocked
    time (``LOCK_BLOCKED`` until the matching grant), and per-primitive
    invocation counts.  Latencies are logical-tick distances — exactly
    as deterministic as the run.
    """

    KINDS = (
        EventKind.INITIATE,
        EventKind.BEGIN,
        EventKind.LOCK_BLOCKED,
        EventKind.DELEGATE,
        EventKind.PERMIT,
        EventKind.FORM_DEPENDENCY,
        EventKind.COMMIT_REQUESTED,
        EventKind.COMMIT_BLOCKED,
        EventKind.COMMITTED,
        EventKind.ABORT_REQUESTED,
        EventKind.ABORTED,
        EventKind.PREPARED,
        EventKind.DEADLOCK_VICTIM,
    )

    # Lock *grants* fire on every successful read/write — the single
    # hottest event pair.  They only matter while some transaction is
    # blocked (to close a LOCK_BLOCKED interval), so instead of keeping
    # them in KINDS we subscribe a dedicated watcher for just these two
    # kinds on the first block and drop it when the last block clears.
    # While no watcher is live, the bus treats grants as unwatched and
    # ``emit`` early-returns before building the Event.
    GRANT_KINDS = (EventKind.READ_LOCK, EventKind.WRITE_LOCK)

    def __init__(self, metrics, bus=None):
        self.metrics = metrics  # a MetricsRegistry or ScopedMetrics
        self.bus = bus  # needed only for the dynamic grant watcher
        # One stable bound method: unsubscribe matches by identity, and
        # every ``self._on_grant`` access builds a fresh bound object.
        self._grant_watcher = self._on_grant
        self._grants_wired = False
        self._initiated = {}  # tid -> initiate tick (until terminal)
        self._begun = set()  # tids whose begin latency was recorded
        self._blocked = {}  # (tid, oid) -> tick of LOCK_BLOCKED
        self._commit_requested = {}  # tid -> tick
        self._abort_requested = {}  # tid -> tick
        # Pre-bound instruments: one registry lookup here instead of one
        # per event — the fold body must stay off the hot path's bill.
        self._c_initiate = metrics.counter("primitive.initiate.calls")
        self._c_delegate = metrics.counter("primitive.delegate.calls")
        self._c_permit = metrics.counter("primitive.permit.calls")
        self._c_lock_blocked = metrics.counter("lock.blocked")
        self._c_commit_blocked = metrics.counter("commit.blocked")
        self._c_committed = metrics.counter("txn.committed")
        self._c_aborted = metrics.counter("txn.aborted")
        self._c_prepared = metrics.counter("twophase.prepared")
        self._c_victims = metrics.counter("deadlock.victims")
        self._c_form_dep = {}  # dep_type -> counter (tiny cardinality)
        self._h_begin = metrics.histogram("latency.initiate_to_begin_ticks")
        self._h_blocked = metrics.histogram("lock.blocked_ticks")
        self._h_moved = metrics.histogram("delegate.oids_moved")
        self._h_commit = metrics.histogram("latency.commit_ticks")
        self._h_abort = metrics.histogram("latency.abort_ticks")
        self._h_lifetime = metrics.histogram("txn.lifetime_ticks")

    def __call__(self, event):
        """Fold one event into the registry."""
        kind = event.kind
        tid = event.tid
        if kind is EventKind.INITIATE:
            self._c_initiate.value += 1
            self._initiated[tid] = event.tick
        elif kind is EventKind.BEGIN:
            started = self._initiated.get(tid)
            if started is not None and tid not in self._begun:
                self._begun.add(tid)
                self._h_begin.observe(event.tick - started)
        elif kind is EventKind.LOCK_BLOCKED:
            self._c_lock_blocked.value += 1
            self._blocked[(tid, event.detail["oid"])] = event.tick
            if self.bus is not None and not self._grants_wired:
                self._grants_wired = True
                self.bus.subscribe(self._grant_watcher, kinds=self.GRANT_KINDS)
        elif kind is EventKind.DELEGATE:
            self._c_delegate.value += 1
            self._h_moved.observe(len(event.detail.get("oids", ())))
        elif kind is EventKind.PERMIT:
            self._c_permit.value += 1
        elif kind is EventKind.FORM_DEPENDENCY:
            dep_type = event.detail["dep_type"]
            counter = self._c_form_dep.get(dep_type)
            if counter is None:
                counter = self._c_form_dep[dep_type] = self.metrics.counter(
                    "primitive.form_dependency.calls", dep_type=dep_type
                )
            counter.value += 1
        elif kind is EventKind.COMMIT_REQUESTED:
            self._commit_requested.setdefault(tid, event.tick)
        elif kind is EventKind.COMMIT_BLOCKED:
            self._c_commit_blocked.value += 1
        elif kind is EventKind.COMMITTED:
            self._c_committed.value += 1
            requested = self._commit_requested.pop(tid, None)
            if requested is not None:
                self._h_commit.observe(event.tick - requested)
            self._terminate(tid, event.tick)
        elif kind is EventKind.ABORT_REQUESTED:
            self._abort_requested.setdefault(tid, event.tick)
        elif kind is EventKind.ABORTED:
            self._c_aborted.value += 1
            requested = self._abort_requested.pop(tid, None)
            if requested is not None:
                self._h_abort.observe(event.tick - requested)
            self._commit_requested.pop(tid, None)
            self._terminate(tid, event.tick)
        elif kind is EventKind.PREPARED:
            self._c_prepared.value += 1
        elif kind is EventKind.DEADLOCK_VICTIM:
            self._c_victims.value += 1

    def _on_grant(self, event):
        """Close a LOCK_BLOCKED interval when its grant arrives."""
        blocked_at = self._blocked.pop((event.tid, event.detail["oid"]), None)
        if blocked_at is not None:
            self._h_blocked.observe(event.tick - blocked_at)
        if not self._blocked:
            self._unwire_grants()

    def _unwire_grants(self):
        if self._grants_wired:
            self._grants_wired = False
            self.bus.unsubscribe(self._grant_watcher)

    def _terminate(self, tid, tick):
        started = self._initiated.pop(tid, None)
        self._begun.discard(tid)
        if started is not None:
            self._h_lifetime.observe(tick - started)
        if self._blocked:
            # A transaction can die while still blocked (deadlock victim,
            # watchdog abort); its grant never comes, so drop its entries
            # rather than pinning the grant watcher forever.
            for key in [k for k in self._blocked if k[0] == tid]:
                del self._blocked[key]
            if not self._blocked:
                self._unwire_grants()


class ObservabilityKit:
    """One metrics registry + one span builder, attachable everywhere.

    The kit is idempotent per target (attaching the same fabric twice is
    a no-op) and survives site reboots: a :class:`~repro.cluster.site.Site`
    holding a kit re-wires it from ``_boot`` after every crash/restart,
    because the restart builds a fresh manager and event bus.
    """

    def __init__(self, clock=None):
        self.metrics = MetricsRegistry(clock=clock)
        self.spans = SpanBuilder()
        self._attached = set()  # ids of objects already wired

    def _once(self, target, tag):
        key = (tag, id(target))
        if key in self._attached:
            return False
        self._attached.add(key)
        return True

    # -- single components -------------------------------------------------

    def attach_manager(self, manager, trace="local", correlate=None):
        """Subscribe metrics + spans to a manager's bus and install the
        per-primitive latency hook (``manager.metrics``)."""
        if not self._once(manager.events, "manager"):
            return self
        scoped = (
            ScopedMetrics(self.metrics, site=trace)
            if trace != "local"
            else self.metrics
        )
        manager.events.subscribe(
            EventMetrics(scoped, bus=manager.events),
            kinds=EventMetrics.KINDS,
        )
        self.spans.subscribe_to(
            manager.events, trace=trace, correlate=correlate
        )
        manager.metrics = scoped
        for method in PRIMITIVES:
            setattr(manager, method, _observed(
                getattr(manager, method), manager.clock, scoped,
                f"primitive.{method.removeprefix('try_')}.ticks",
            ))
        if self.metrics.clock is None:
            self.metrics.clock = manager.clock
        self.attach_log(manager.storage.log, trace=trace)
        return self

    def attach_log(self, log, trace="local"):
        """Install the WAL append/flush metrics hook.

        A segmented log (the sharded engine) gets one scoped view per
        shard segment — ``wal.appends{shard=2}`` and friends — plus a
        collector mirroring per-segment census rows as gauges, so shard
        imbalance is visible straight off the registry.  Restart
        recovery sets ``recovery.scanned`` / ``redone`` / ``superseded``
        / ``undone`` / ``redo_from`` / ``restart_from`` through the same
        hook.
        """
        if not self._once(log, "log"):
            return self
        base_labels = {"site": trace} if trace != "local" else {}
        segments = getattr(log, "segments", None)
        # On the log itself (flat, or the merged view): what restart
        # recovery exports its ``recovery.*`` gauges through.
        log.metrics = (
            ScopedMetrics(self.metrics, **base_labels)
            if base_labels
            else self.metrics
        )
        if segments is None:
            return self
        for index, segment in enumerate(segments):
            segment.metrics = ScopedMetrics(
                self.metrics, shard=index, **base_labels
            )
        storage = getattr(log, "_storage", None)
        if storage is not None and hasattr(storage, "segment_stats"):

            def collect(registry):
                for row in storage.segment_stats():
                    shard = row["shard"]
                    for name, value in row.items():
                        if name == "shard":
                            continue
                        registry.set_gauge(
                            f"segment.{name}",
                            value,
                            shard=shard,
                            **base_labels,
                        )

            self.metrics.add_collector(collect)
        return self

    def attach_fabric(self, fabric):
        """Install the per-site message-count hook and a stats collector."""
        if not self._once(fabric, "fabric"):
            return self
        fabric.metrics = self.metrics

        def collect(registry):
            for name, value in fabric.stats.items():
                registry.set_gauge(f"fabric.{name}", value)

        self.metrics.add_collector(collect)
        return self

    def attach_watchdog(self, watchdog, trace="local"):
        """Mirror the watchdog's containment accounting as gauges."""
        if not self._once(watchdog, "watchdog"):
            return self

        def collect(registry):
            for name, value in watchdog.stats.items():
                if trace != "local":
                    registry.set_gauge(f"watchdog.{name}", value, site=trace)
                else:
                    registry.set_gauge(f"watchdog.{name}", value)

        self.metrics.add_collector(collect)
        return self

    def attach_workflow(self, engine, trace="workflow"):
        """Wire a :class:`~repro.workflow.engine.WorkflowEngine`.

        Three hooks: live counters (``workflow.started`` and friends)
        through the engine's ``metrics`` attribute, a collector
        mirroring the engine's stats dict as gauges, and one span per
        execution folded from the record stream — opened by the
        ``started`` record, annotated with every step attempt / signal /
        compensation, closed (with the outcome as its status) by the
        ``finished`` record.
        """
        if not self._once(engine, "workflow"):
            return self
        engine.metrics = self.metrics

        def collect(registry):
            for name, value in engine.stats.items():
                registry.set_gauge(f"workflow.stats.{name}", value)

        self.metrics.add_collector(collect)
        spans = self.spans.spans
        annotated = ("definition", "step", "alt", "tid", "signal", "name",
                     "outcome", "on_timeout")

        def on_record(wid, kind, fields):
            tick = engine.clock.peek()
            key = (trace, wid)
            span = spans.get(key)
            if span is None:
                span = spans[key] = {
                    "trace": trace,
                    "tid": wid,
                    "start": tick,
                    "end": None,
                    "status": "open",
                    "reason": None,
                    "gid": None,
                    "prepared": None,
                    "origin_msg": None,
                    "links": [],
                }
            span["links"].append({
                "type": kind,
                "tick": tick,
                **{k: fields[k] for k in annotated if k in fields},
            })
            if kind == "finished":
                span["end"] = tick
                span["status"] = fields.get("outcome", "finished")

        engine.on_record = on_record
        return self

    # -- assemblies --------------------------------------------------------

    def attach_stack(self, stack):
        """Wire a single-site :class:`~repro.chaos.stack.ChaosStack`."""
        self.attach_manager(stack.manager)
        if stack.resilience is not None:
            self.attach_watchdog(stack.resilience.watchdog)
        return self

    def attach_cluster(self, cluster):
        """Wire a whole :class:`~repro.cluster.cluster.Cluster`.

        Each site re-wires itself after restarts; the shared fabric and
        clock are wired once here.
        """
        self.metrics.clock = cluster.clock
        self.attach_fabric(cluster.fabric)
        for name in sorted(cluster.sites):
            cluster.sites[name].attach_observability(self)
        return self

    # -- fabric-message correlation ---------------------------------------

    @contextmanager
    def message_context(self, site, msg):
        """While a site handles ``msg``, spans it creates record the
        message id that caused them (cross-site causality)."""
        previous = self.spans.current_message
        self.spans.current_message = (site, msg.msg_id, msg.src, msg.kind)
        try:
            yield
        finally:
            self.spans.current_message = previous

    # -- export ------------------------------------------------------------

    def snapshot(self):
        """The metrics snapshot (collectors included)."""
        return self.metrics.snapshot()

    def write_metrics(self, path):
        """Write the metrics snapshot to ``path`` as JSON."""
        with open(path, "w") as handle:
            handle.write(self.metrics.to_json())
            handle.write("\n")

    def write_spans(self, path):
        """Write the span table to ``path`` as JSONL; returns the count."""
        with open(path, "w") as handle:
            return self.spans.export_jsonl(handle)


def install_observability(
    manager=None, fabric=None, watchdog=None, cluster=None, clock=None
):
    """Build a kit and attach it to whatever is given.

    Any combination works: a bare manager (unit tests, benchmarks), a
    manager plus its fabric and watchdog (one instrumented site), or a
    whole cluster.  Returns the :class:`ObservabilityKit`.
    """
    kit = ObservabilityKit(clock=clock)
    if cluster is not None:
        kit.attach_cluster(cluster)
    if manager is not None:
        kit.attach_manager(manager)
    if fabric is not None:
        kit.attach_fabric(fabric)
    if watchdog is not None:
        kit.attach_watchdog(watchdog)
    return kit
