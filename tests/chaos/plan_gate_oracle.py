"""The ungated injector and fabric: every step asks the plan everything.

Until PR 19 each instrumented site put every question to its
:class:`~repro.chaos.faults.FaultPlan` at every step, and the fabric ran
all six mark tests per send.  Those bodies are kept here, verbatim (but
for the fabric's metrics hook, which no test here installs), as the
references the ``first_step``-gated versions are checked against
(``tests/chaos/test_plan_gate.py``) — the ``tests/storage/scan_oracle.py``
idiom.
"""

from repro.chaos.faults import (
    GC_ENROLL,
    LOG_APPEND,
    LOG_FLUSH,
    NET_MSG,
    PAGE_SYNC,
    PAGE_WRITE,
    POOL_FLUSH,
    TORN_PREFIX,
    CrashPoint,
    FaultInjector,
    IoStep,
)
from repro.common.errors import TransientIOError
from repro.net.fabric import Message, NetworkFabric


class UngatedInjector(FaultInjector):
    """:class:`FaultInjector` with the parent's numbering and sites."""

    def _next(self, kind, detail=""):
        self.step_count += 1
        step = IoStep(self.step_count, kind, detail)
        self.trace.append(step)
        return step

    def _check_crash(self, step):
        if self.plan.crash_at == step.number:
            self._crash(step)

    def page_write(self, page_id, raw, install):
        if not self.armed:
            install(raw)
            return
        step = self._next(PAGE_WRITE, f"page={page_id}")
        self._check_crash(step)
        if self.plan.torn_page_at == step.number:
            install(bytes(raw[:TORN_PREFIX]))
            self.fired = step
            self.armed = False
            raise CrashPoint(step.number, "torn_" + PAGE_WRITE, step.detail)
        install(raw)

    def page_sync(self, do_sync):
        if not self.armed:
            do_sync()
            return
        step = self._next(PAGE_SYNC)
        self._check_crash(step)
        do_sync()

    def log_append(self, nbytes, do_append):
        if not self.armed:
            do_append()
            return
        step = self._next(LOG_APPEND, f"bytes={nbytes}")
        self._check_crash(step)
        do_append()

    def log_flush(self, do_flush):
        if not self.armed:
            do_flush()
            return
        step = self._next(LOG_FLUSH)
        self._check_crash(step)
        if step.number in self.plan.fail_flush_at:
            self.failed_flushes += 1
            raise TransientIOError(
                f"injected transient flush failure at step {step.number}",
                op="log.flush",
            )
        if step.number in self.plan.lose_fsync_at:
            self.lied_fsyncs += 1
            return
        do_flush()

    def pool_flush(self, dirty_count):
        if not self.armed:
            return
        step = self._next(POOL_FLUSH, f"dirty={dirty_count}")
        self._check_crash(step)

    def gc_enroll(self, pending_commits):
        if not self.armed:
            return
        step = self._next(GC_ENROLL, f"pending={pending_commits}")
        self._check_crash(step)

    def message(self, src, dst, kind):
        if not self.armed:
            return "deliver", None
        step = self._next(NET_MSG, f"{src}->{dst}:{kind}")
        self._check_crash(step)
        if (
            step.number in self.plan.drop_msg_at
            or kind in self.plan.drop_msg_kinds
        ):
            return "drop", step
        if step.number in self.plan.dup_msg_at:
            return "duplicate", step
        if step.number in self.plan.delay_msg_at:
            return "delay", step
        return "deliver", step


class UngatedFabric(NetworkFabric):
    """:class:`NetworkFabric` with the parent's send path: the marks are
    tested at every numbered message."""

    def send(self, src, dst, kind, payload=None, reply_to=None):
        message = Message(
            msg_id=next(self._msg_ids),
            src=src,
            dst=dst,
            kind=kind,
            payload=dict(payload) if payload else {},
            reply_to=reply_to,
        )
        self.stats["sent"] += 1
        action, step = self.injector.message(src, dst, kind)
        number = step.number if step is not None else None
        self._marks_at_every_step(number)
        action = self._link_verdict(message, action)
        self.delivery_log.append((number, src, dst, kind, action))
        if action == "drop":
            self.stats["dropped"] += 1
        elif action == "partition_drop":
            self.stats["partition_drops"] += 1
        elif action == "duplicate":
            self.stats["duplicated"] += 1
            self.inboxes[dst].append(message)
            self.inboxes[dst].append(message)
        elif action == "delay":
            self.stats["delayed"] += 1
            self.delayed.append(message)
        else:
            self.inboxes[dst].append(message)
        return message

    def _marks_at_every_step(self, number):
        plan = self.injector.plan
        if number is None:
            return
        if (
            plan.partition_at is not None
            and not self._partition_applied
            and number >= plan.partition_at
        ):
            self.partition(plan.partition_groups)
            self._partition_applied = True
        if (
            plan.heal_at is not None
            and self._partition_applied
            and not self._healed
            and number >= plan.heal_at
        ):
            self.heal()
            self._healed = True
        if (
            plan.site_crash_at is not None
            and not self._site_crash_fired
            and number >= plan.site_crash_at[1]
        ):
            self._site_crash_fired = True
            site = plan.site_crash_at[0]
            if self.crash_hook is not None:
                self.crash_hook(site)
            else:
                self.mark_down(site)
        if (
            plan.kill_coordinator_at is not None
            and not self._kill_coordinator_fired
            and number >= plan.kill_coordinator_at
        ):
            target = self.coordinator_name
            if target is not None:
                self._kill_coordinator_fired = True
                if self.crash_hook is not None:
                    self.crash_hook(target)
                else:
                    self.mark_down(target)
        if (
            plan.join_site_at is not None
            and not self._join_fired
            and number >= plan.join_site_at[1]
        ):
            self._join_fired = True
            self._churn_requests.append(("join", plan.join_site_at[0]))
        if (
            plan.leave_site_at is not None
            and not self._leave_fired
            and number >= plan.leave_site_at[2]
        ):
            self._leave_fired = True
            self._churn_requests.append(
                ("leave", (plan.leave_site_at[0], plan.leave_site_at[1]))
            )
