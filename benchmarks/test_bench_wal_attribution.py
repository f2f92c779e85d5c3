"""EX15 — WAL attribution: incremental index vs full-log scan.

``updates_by`` used to replay the entire decoded log on every abort and
delegation, making an abort-heavy workload quadratic in history length.
The attribution index makes it a dict probe.  Sweeps:

* ``updates_by`` for one transaction against a growing *foreign*
  history — indexed cost is flat, the retained scan oracle grows
  linearly (the per-call gap is the quadratic term's slope);
* restart ``max_tid_value`` — a probe after one ``resync`` rebuild.
"""

import time

from repro.bench.report import print_table
from repro.common.ids import ObjectId, Tid
from repro.storage.log import WriteAheadLog
from tests.storage.scan_oracle import max_tid_value_scan, updates_by_scan

VICTIM = Tid(1)


def _log_with_history(foreign_records):
    log = WriteAheadLog()
    log.log_update(VICTIM, ObjectId(1), b"mine", b"mine too")
    for value in range(foreign_records):
        log.log_update(
            Tid(2 + value % 50), ObjectId(2 + value % 7), b"foreign", b"f"
        )
    return log


def _time_us(fn, repeats=200):
    start = time.perf_counter()
    for __ in range(repeats):
        fn()
    return (time.perf_counter() - start) * 1e6 / repeats


def test_bench_updates_by_indexed_vs_scan(benchmark):
    rows = []
    for history in (100, 400, 1600, 6400):
        log = _log_with_history(history)
        indexed_us = _time_us(lambda: log.updates_by(VICTIM))
        scan_us = _time_us(
            lambda: updates_by_scan(log, VICTIM), repeats=10
        )
        assert log.updates_by(VICTIM) == updates_by_scan(log, VICTIM)
        rows.append([history, indexed_us, scan_us, scan_us / indexed_us])
    print_table(
        "EX15: updates_by — indexed probe vs full-log scan",
        ["history length", "indexed us", "scan us", "scan/indexed"],
        rows,
    )
    # The scan grows with history; the probe does not (10x slack for
    # scheduler noise on sub-microsecond timings).
    assert rows[-1][2] > rows[0][2] * 4
    assert rows[-1][1] < rows[0][1] * 10
    log = _log_with_history(1600)
    benchmark(lambda: log.updates_by(VICTIM))


def test_bench_restart_max_tid_probe(benchmark):
    rows = []
    for history in (100, 800, 6400):
        log = _log_with_history(history)
        log.flush()
        reopened = WriteAheadLog(log.device)  # one resync rebuild
        probe_us = _time_us(reopened.max_tid_value)
        assert reopened.max_tid_value() == max_tid_value_scan(reopened)
        rows.append([history, probe_us])
    print_table(
        "EX15b: max_tid_value after restart — probe cost",
        ["history length", "us"],
        rows,
    )
    log = _log_with_history(800)
    benchmark(log.max_tid_value)
