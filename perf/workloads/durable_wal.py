"""durable_wal — file-backed storage doing most of the work."""

from __future__ import annotations

import os

from repro.core.manager import TransactionManager
from repro.runtime.coop import CooperativeRuntime
from repro.storage.disk import FileDiskManager
from repro.storage.log import FileLogDevice, WriteAheadLog
from repro.storage.store import StorageManager

from perf import inputs as gen
from perf.clients import run_sequential
from perf.device import PacedSync
from perf.workload import (
    Workload,
    create_objects,
    manager_census,
    manager_counters,
    read_values,
)

POOL_PAGES = 64  # a quarter of the 256-page working set
CHECKPOINTS = 4  # per timed loop, evenly spaced


def read_one_write_six(tx, read_oid, write_oids, value):
    yield tx.read(read_oid)
    for oid in write_oids:
        yield tx.write(oid, value)


class DurableWal(Workload):
    name = "durable_wal"
    why = (
        "the only workload where storage does most of the work: log"
        " append, eviction-forced flushes, page I/O, checkpoints, recovery"
    )
    units = 700
    clients = 1
    objects = 256

    def generate(self, seed, units):
        return gen.durable_wal(seed, units, self.objects)

    def _open(self):
        """The stack over the two files, default flush policy
        (``group_commit=None``: every commit syncs the log)."""
        storage = StorageManager(
            disk=FileDiskManager(self.pages_path),
            log=WriteAheadLog(FileLogDevice(self.log_path)),
            capacity=POOL_PAGES,
        )
        return CooperativeRuntime(TransactionManager(storage=storage))

    def build(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.log_path = os.path.join(self.workdir, "wal.log")
        self.pages_path = os.path.join(self.workdir, "pages.db")
        for path in (self.log_path, self.pages_path):
            if os.path.exists(path):
                os.remove(path)
        self.sync = PacedSync()
        self.sync.install()
        self.raw_runtime = self._open()
        self.manager = self.raw_runtime.manager
        self.oids = self.raw_runtime.run(
            create_objects, args=(self.objects, bytes(gen.VALUE_BYTES))
        ).value
        self.runtime = self.tracer.wrap("runtime", self.raw_runtime)
        self.traced_manager = self.tracer.wrap("core.manager", self.manager)

    def prepare(self, inputs):
        oids = self.oids
        return [
            (
                oids[read],
                tuple(oids[index] for index in writes),
                gen.durable_value(stem),
            )
            for read, writes, stem in inputs
        ]

    def run(self, work, recorder):
        run = self.runtime.run
        checkpoint = self.traced_manager.checkpoint
        every = max(1, len(work) // CHECKPOINTS)
        done = 0

        def do_unit(args):
            nonlocal done
            ok = run(read_one_write_six, args=args).committed
            done += 1
            if done % every == 0:
                checkpoint()  # inside the unit's latency: the tail shows it
            return "atomic", ok

        run_sequential(work, do_unit, recorder)

    def expected(self, inputs):
        images = [bytes(gen.VALUE_BYTES)] * self.objects
        for _read, writes, stem in inputs:
            value = gen.durable_value(stem)
            for index in writes:
                images[index] = value
        return images

    def _check(self, runtime, inputs, where):
        got = runtime.run(read_values, args=(self.oids,)).value
        want = self.expected(inputs)
        wrong = [i for i in range(self.objects) if got[i] != want[i]]
        if not wrong:
            return []
        return [
            f"{where}: {len(wrong)} of {self.objects} objects do not hold"
            f" their last committed image (first: object {wrong[0]})"
        ]

    def verify(self, inputs, recorder):
        return self._check(self.raw_runtime, inputs, "live")

    def user_bytes(self, inputs):
        return sum(len(writes) for _r, writes, _s in inputs) * gen.VALUE_BYTES

    def counters(self):
        out = manager_counters(self.manager, self.raw_runtime)
        out["storage.log.bytes"] = os.path.getsize(self.log_path)
        out["device.syncs"] = self.sync.calls
        return out

    def census(self):
        return manager_census(self.manager, self.raw_runtime)

    def recover(self, inputs, recorder):
        """Power cut, then restart from the files alone.

        The devices are closed without the storage manager's clean
        shutdown (so dirty cached pages are lost), the log loses whatever
        was appended after its last sync, and a new stack is opened over
        the two paths.
        """
        storage = self.manager.storage
        storage.log.device.close()
        storage.disk.close()
        self.raw_runtime = self.manager = self.runtime = None
        self.traced_manager = None
        self.sync.cut_power(self.log_path)

        def reopen():
            runtime = self._open()
            return runtime, runtime.manager.storage.recover()

        (runtime, report), seconds = self.clock.timed(reopen)
        counts = {
            "storage.recovery.records_scanned": len(
                runtime.manager.storage.log.records()
            ),
            "storage.recovery.redo_count": report.redone,
            "storage.recovery.undo_count": report.undone,
        }
        problems = self._check(runtime, inputs, "after reopen + recover()")
        runtime.manager.storage.close()
        return seconds, counts, problems

    def close(self):
        if self.manager is not None:
            self.manager.storage.close()
            self.manager = None
        self.sync.remove()
        for path in (self.log_path, self.pages_path):
            if os.path.exists(path):
                os.remove(path)
