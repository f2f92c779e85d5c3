"""EX13 (ablation) — restart recovery work vs log length.

Without a checkpoint, recovery reads the whole durable history, so its
cost grows with it.  A checkpoint bounds it two ways: the *sharp* one
(flush all pages, truncate the log when quiescent) by discarding the
history, the plain one by marking where redo may begin — its marker's
``redo_lsn`` — while keeping every record.  Sweep the number of
committed transactions before the crash under all three.

Expected shape: records decoded and scanned linear in log length
without a checkpoint, one (the marker) with either kind — the
log-keeping one without discarding anything; recovered state identical
all three ways.  Installs are flat *either way* since PR 23: redo
installs each object once, at its newest image, so without a checkpoint
it is the 4 counters at every length and the rest of the history's
images are superseded.  What a checkpoint still buys is the decode and
the scan, and at 512 transactions that is a millisecond gap inside this
box's noise — the closing assertions are on counts.  Since
PR 17 that holds with the open inside the clock as well ("reopened": a
new log handle and storage stack over the surviving devices, as after a
real restart): the log opens at its restart point and decodes the
marker, whatever lies below it.
"""

import time

from conftest import fresh_runtime, incrementer, make_counters

from repro.bench.report import print_table
from repro.storage.log import WriteAheadLog
from repro.storage.store import StorageManager


def _workload(history_length, checkpoint, seed=27, reopen=False):
    rt = fresh_runtime(seed=seed)
    storage = rt.manager.storage
    oids = make_counters(rt, 4)
    for index in range(history_length):
        tid = rt.spawn(incrementer(oids[index % 4]))
        rt.commit(tid)
    if checkpoint:
        rt.manager.checkpoint(truncate=checkpoint == "sharp")
    storage.log.flush()
    storage.crash()
    start = time.perf_counter()
    if reopen:
        storage = StorageManager(
            disk=storage.disk, log=WriteAheadLog(storage.log.device)
        )
    report = storage.recover()
    elapsed = (time.perf_counter() - start) * 1e3
    finals = [
        int(storage.read_object(None, oid).decode("ascii")) for oid in oids
    ]
    return elapsed, finals, report


def test_bench_recovery_log_length_sweep(benchmark):
    rows = []
    for history in (8, 32, 128, 512):
        plain_ms, plain_state, plain = _workload(history, checkpoint=None)
        sharp_ms, sharp_state, sharp = _workload(history, checkpoint="sharp")
        kept_ms, kept_state, kept = _workload(history, checkpoint="kept")
        reopened_ms, reopened_state, reopened = _workload(
            history, checkpoint="kept", reopen=True
        )
        assert plain_state == sharp_state == kept_state == reopened_state
        expected = [
            len([i for i in range(history) if i % 4 == slot])
            for slot in range(4)
        ]
        assert plain_state == expected
        # Redo work, exactly: without a checkpoint the 4 counters, once
        # each, standing for every after image in the history; none
        # behind either kind.  The kept log is all still on the
        # device (``redo_from`` names its last record below the marker),
        # but restart decodes and analyses its tail: the marker.
        assert (plain.redone, plain.superseded) == (4, history)
        assert plain.redo_from == 0
        assert (sharp.redone, sharp.scanned) == (0, 1)
        for report in (kept, reopened):
            assert (report.redone, report.scanned) == (0, 1)
            assert report.redo_from == plain.scanned
            assert report.restart_from == plain.scanned + 1
        rows.append([history, plain_ms, sharp_ms, kept_ms, reopened_ms,
                     plain.redone, plain.superseded, kept.redone,
                     plain.scanned, plain.scanned + 1, reopened.scanned])
    print_table(
        "EX13: recovery time vs history length — no / sharp / log-keeping"
        " checkpoint",
        ["committed txns", "no checkpoint (ms)", "sharp checkpoint (ms)",
         "checkpoint, log kept (ms)", "checkpoint, log kept, reopened (ms)",
         "redone (none)", "superseded (none)", "redone (kept)",
         "scanned (none)", "records kept", "decoded at reopen (kept)"],
        rows,
    )
    # Without checkpoints what restart scans grows with the history —
    # two records a transaction, above the 5 of the set-up; with them
    # it is the marker, the open included, with every record kept.
    assert all(
        row[8:] == [2 * row[0] + 5, 2 * row[0] + 6, 1] for row in rows
    )
    benchmark(lambda: _workload(64, checkpoint=None))


def test_bench_recovery_loser_heavy(benchmark):
    """Undo-heavy recovery: many uncommitted writers at crash time."""

    def run(losers):
        rt = fresh_runtime(seed=28)
        storage = rt.manager.storage
        oids = make_counters(rt, losers)
        committed = rt.spawn(incrementer(oids[0]))
        rt.commit(committed)
        for oid in oids:
            rt.spawn(incrementer(oid, delta=100))
        rt.run_until_quiescent()  # all complete, none commit
        storage.log.flush()
        storage.crash()
        start = time.perf_counter()
        report = storage.recover()
        elapsed = (time.perf_counter() - start) * 1e3
        return elapsed, report.undone

    rows = []
    for losers in (2, 8, 32):
        elapsed, undone = run(losers)
        assert undone >= losers
        rows.append([losers, undone, elapsed])
    print_table(
        "EX13b: undo-heavy recovery",
        ["in-flight writers", "updates undone", "ms"],
        rows,
    )
    assert rows[-1][1] > rows[0][1]
    benchmark(lambda: run(8))
