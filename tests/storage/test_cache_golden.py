"""The cache behaves as it was recorded to: an exact golden of its traffic.

``tests/storage/golden/cache_script.json`` holds what a fixed script of
400 storage operations — reads, same-size rewrites, growth past a page
(relocation), growth into and out of large objects, deletes, undo, a
commit record every fifth operation and one checkpoint — did to a
4-frame pool over file devices: misses, evictions, write-ahead forces,
disk reads, disk writes, log appends and flushes, the final clock order,
every fetch (hits + misses) and a digest of every surviving value.  A green run says a storage change moved none
of it: no miss, eviction, force or disk transfer, and the clock sweeps
in the order it swept.

It was first recorded when an inline write pinned its page four times,
and then held every count but ``fetches`` — the one that change lowered —
to the recording.  It moved once since, when placement began to ask the
shard's free-space map instead of walking the cached frames, through the
checked mapping of ``tests/chaos/golden/placement_remap.py``: the log
byte for byte, the log appends, the flushes commits and checkpoints force
and the surviving values are as they were; the page traffic placement
steers is not (``tests/chaos/golden/placement_mapping.txt`` lists it,
parent → here).

Re-record (only when the cache is *meant* to behave differently) with
the tree to record from first on the path::

    PYTHONPATH=src:. python -c \\
        "from tests.storage.test_cache_golden import record; record()"
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from repro.common.ids import ObjectId, Tid
from repro.storage.disk import FileDiskManager
from repro.storage.log import FileLogDevice, WriteAheadLog
from repro.storage.store import StorageManager

GOLDEN = Path(__file__).parent / "golden" / "cache_script.json"
OPERATIONS = 400
FRAMES = 4
# Several to a page, one to a page, and past a page (a large object).
SIZES = (300, 700, 1300, 2100, 3900, 4500, 9000)


def _lcg(seed):
    """A fixed stream: no dependence on ``random``'s algorithms."""
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 33


def _value(stamp, size):
    return bytes([stamp % 251]) * size


def run_script(directory):
    """Drive the script; return what the golden records."""
    directory = Path(directory)
    storage = StorageManager(
        disk=FileDiskManager(directory / "pages.db"),
        log=WriteAheadLog(FileLogDevice(directory / "wal.log")),
        capacity=FRAMES,
    )
    transfers = {"reads": 0, "writes": 0}
    read_page, write_page = storage.disk.read_page, storage.disk.write_page

    def counted_read(page_id):
        transfers["reads"] += 1
        return read_page(page_id)

    def counted_write(page_id, raw):
        transfers["writes"] += 1
        return write_page(page_id, raw)

    storage.disk.read_page = counted_read
    storage.disk.write_page = counted_write

    draws = _lcg(22)
    tid_value = 1
    live = []
    for step in range(OPERATIONS):
        tid = Tid(tid_value)
        draw = next(draws)
        choice = draw % 100
        size = SIZES[(draw >> 8) % len(SIZES)]
        if len(live) < 6 or choice < 12:
            live.append(storage.create_object(tid, _value(step, size)))
        else:
            oid = live[(draw >> 16) % len(live)]
            if choice < 45:
                storage.read_object(tid, oid)
            elif choice < 65:
                # Same size as it has: the in-place path.
                current = storage.read_object(tid, oid)
                storage.write_object(tid, oid, _value(step, len(current)))
            elif choice < 88:
                storage.write_object(tid, oid, _value(step, size))
            elif choice < 94:
                storage.delete_object(tid, oid)
                live.remove(oid)
            else:
                # Roll the running transaction back: installs.
                storage.undo(tid)
                storage.log_abort(tid)
                tid_value += 1
                live = [
                    oid for oid in live if storage.objects.exists(oid)
                ]
                continue
        if step % 5 == 4:
            storage.log_commit(tid)
            tid_value += 1
        if step == OPERATIONS // 2:
            storage.checkpoint()

    pool = storage.pool
    digest = hashlib.sha256()
    for value in storage.objects.object_ids():
        digest.update(value.to_bytes(8, "little"))
    observed = {
        "misses": pool.misses,
        "evictions": pool.evictions,
        "wal_forces": pool.wal_forces,
        "disk_reads": transfers["reads"],
        "disk_writes": transfers["writes"],
        "log_appends": storage.log.last_lsn,
        "log_flushes": storage.log.flush_count,
        "clock_order": list(pool._clock_order),
        "clock_hand": pool._clock_hand,
        "referenced": [
            int(pool._frames[page_id].referenced)
            for page_id in pool._clock_order
        ],
        "dirty": [
            int(pool._frames[page_id].dirty) for page_id in pool._clock_order
        ],
        "pages": len(storage.disk.page_ids()),
        "fetches": pool.hits + pool.misses,
    }
    # Read the values last: the reads move the clock.
    for value in storage.objects.object_ids():
        digest.update(storage.objects.read(ObjectId(value)))
    observed["state_sha256"] = digest.hexdigest()
    assert all(
        frame.pin_count == 0 for frame in pool._frames.values()
    ), "a pin outlived the script"
    storage.close()
    return observed


def record():
    with tempfile.TemporaryDirectory() as directory:
        observed = run_script(directory)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")


def test_the_script_exercises_what_it_says(tmp_path):
    """The golden is worth comparing against: the pool is far smaller
    than the working set and every write-back kind happened."""
    golden = json.loads(GOLDEN.read_text())
    assert golden["pages"] > 3 * FRAMES
    assert golden["evictions"] > 50
    assert golden["misses"] > 50
    assert golden["wal_forces"] > 0
    assert golden["disk_writes"] > golden["evictions"] // 2


def test_cache_traffic_equals_the_recording(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_script(tmp_path) == golden
