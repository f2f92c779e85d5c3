"""Relations: ordered collections of records, for cursor-style access.

Section 3.2.2 speaks of a cursor moving "from one record to the next
within a relation".  This module supplies that substrate over plain
objects:

* a relation is a *directory object* holding the ordered record-oid list;
* each record is its own object, so record-level locks and permits work
  exactly as the cursor-stability model requires;
* scans read the directory under a read lock, which doubles as phantom
  protection — an insert needs the directory's write lock, so it cannot
  slip new records into a scan in progress (unless the scanner opts into
  that too, via ``permit``).

All helpers are body-level generator fragments (``yield from``).
"""

from __future__ import annotations

from repro.common.codec import decode_json, encode_json
from repro.models.cursor import release_record

# The oid *values* live in the directory (ObjectId is reconstructed on
# read); names are for trace readability only.
from repro.common.ids import ObjectId


def create_relation(tx, name="relation"):
    """Create an empty relation; returns its directory oid."""
    directory = yield tx.create(encode_json([]), name=f"{name}.dir")
    return directory


def insert_record(tx, relation, value):
    """Append a record holding JSON ``value``; returns the record's oid.

    Takes the directory write lock (serializing inserts and excluding
    concurrent scans — the phantom rule).
    """
    record = yield tx.create(encode_json(value), name="record")
    entries = decode_json((yield tx.read(relation)))
    entries.append(record)
    yield tx.write(relation, encode_json(entries))
    return record


def record_oids(tx, relation):
    """The relation's record oids, in insertion order."""
    entries = decode_json((yield tx.read(relation)))
    return [ObjectId(value, name="record") for value in entries]


def scan_relation(tx, relation, process=None, stable=True):
    """Scan all records in order; the §3.2.2 cursor discipline.

    With ``stable=True`` each record is write-permitted to everyone as
    the cursor moves past it (cursor stability); with ``stable=False``
    the scan is repeatable-read.  Either way the directory's read lock
    is held to commit, so the record *set* cannot change underneath the
    scan (no phantoms).
    """
    records = yield from record_oids(tx, relation)
    results = []
    for oid in records:
        raw = yield tx.read(oid)
        value = decode_json(raw)
        results.append(process(value) if process is not None else value)
        if stable:
            yield from release_record(tx, oid)
    return results


def update_record(tx, record, transform):
    """Read-modify-write one record under its write lock."""
    value = decode_json((yield tx.read(record)))
    new_value = transform(value)
    yield tx.write(record, encode_json(new_value))
    return new_value


def delete_record(tx, relation, record):
    """Remove a record from the relation (directory write lock)."""
    entries = decode_json((yield tx.read(relation)))
    if record in entries:
        entries.remove(record)
        yield tx.write(relation, encode_json(entries))
        return True
    return False
