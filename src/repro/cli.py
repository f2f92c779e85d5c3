"""Command-line interface: a file-backed ASSET database.

Gives the library an operational surface::

    python -m repro.cli init --db ./mydb
    python -m repro.cli create --db ./mydb stock 5 paid 0
    python -m repro.cli get --db ./mydb stock
    python -m repro.cli run --db ./mydb program.asset --var price=30
    python -m repro.cli log --db ./mydb
    python -m repro.cli checkpoint --db ./mydb --truncate
    python -m repro.cli recover --db ./mydb

A database directory holds ``pages.db`` (the page file) and ``wal.log``
(the write-ahead log).  Object names are kept in a catalog object that is
always object id 1; values are JSON, matching the mini-language.
Programs are mini-language source (see :mod:`repro.lang`): atomic,
distributed, contingent, or saga units.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.common.codec import decode_json, encode_json
from repro.common.errors import StorageError
from repro.common.ids import ObjectId
from repro.core.manager import TransactionManager
from repro.lang import compile_source
from repro.runtime.coop import CooperativeRuntime
from repro.storage.disk import FileDiskManager
from repro.storage.log import FileLogDevice, WriteAheadLog
from repro.storage.store import StorageManager

_CATALOG_OID = ObjectId(1, name="__catalog__")


class Database:
    """A file-backed storage stack plus the name catalog.

    Opening runs restart recovery (``report`` says what it did) before
    anything looks for the catalog: a torn page that held it is rebuilt
    from the log, never re-created empty.
    """

    def __init__(self, path):
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)
        disk = FileDiskManager(os.path.join(self.path, "pages.db"))
        log = WriteAheadLog(FileLogDevice(os.path.join(self.path, "wal.log")))
        self.storage = StorageManager(disk=disk, log=log)
        self.report = self.storage.recover()
        self.runtime = CooperativeRuntime(
            TransactionManager(storage=self.storage)
        )
        self._ensure_catalog()

    def _ensure_catalog(self):
        if not self.storage.objects.exists(_CATALOG_OID):
            def setup(tx):
                return (yield tx.create(encode_json({}), name="__catalog__"))

            result = self.runtime.run(setup)
            if result.value != _CATALOG_OID:
                raise RuntimeError(
                    f"catalog landed at {result.value!r}, expected oid 1"
                )

    def catalog(self):
        """The name → oid-value mapping."""
        return decode_json(self.storage.objects.read(_CATALOG_OID))

    def objects_by_name(self):
        """The name → :class:`ObjectId` mapping for program execution."""
        return {
            name: ObjectId(value, name=name)
            for name, value in self.catalog().items()
        }

    def create(self, name, value):
        """Create a named object holding a JSON value (one transaction)."""
        if name in self.catalog():
            raise SystemExit(f"object {name!r} already exists")

        def body(tx):
            oid = yield tx.create(encode_json(value), name=name)
            catalog = decode_json((yield tx.read(_CATALOG_OID)))
            catalog[name] = oid
            yield tx.write(_CATALOG_OID, encode_json(catalog))
            return oid

        result = self.runtime.run(body)
        if not result.committed:
            raise SystemExit(f"creating {name!r} failed")
        return result.value

    def get(self, name):
        """Read a named object's value (one transaction)."""
        oid = self.objects_by_name().get(name)
        if oid is None:
            raise SystemExit(f"no such object: {name!r}")

        def body(tx):
            return decode_json((yield tx.read(oid)))

        return self.runtime.run(body).value

    def close(self):
        """Clean shutdown: a checkpoint (``close`` flushes the pool
        anyway), so the next invocation opens the log at its restart
        point instead of decoding the database's whole history — unless
        the tail is still nothing but the last checkpoint's marker: an
        invocation that logged nothing leaves the log as it found it."""
        log = self.storage.log
        if not (len(log) == 1 and log.redo_lsn):
            self.storage.checkpoint()
        self.storage.close()


def _parse_value(text):
    """A CLI value: JSON if it parses, else a plain string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def cmd_init(args):
    """Create (or open) an empty database directory."""
    database = Database(args.db)
    print(f"initialized database at {database.path}")
    database.close()
    return 0


def cmd_create(args):
    """Create named JSON objects from NAME VALUE argument pairs."""
    if len(args.pairs) % 2:
        raise SystemExit("create expects NAME VALUE pairs")
    database = Database(args.db)
    try:
        for index in range(0, len(args.pairs), 2):
            name, raw = args.pairs[index], args.pairs[index + 1]
            oid = database.create(name, _parse_value(raw))
            print(f"created {name} = {raw} ({oid!r})")
    finally:
        database.close()
    return 0


def cmd_get(args):
    """Print named objects (or all of them) as `name = json`."""
    database = Database(args.db)
    try:
        for name in args.names or sorted(database.catalog()):
            if name == "__catalog__":
                continue
            print(f"{name} = {json.dumps(database.get(name))}")
    finally:
        database.close()
    return 0


def cmd_run(args):
    """Compile a mini-language program and run it against the database."""
    from repro.lang.lexer import LangSyntaxError

    try:
        with open(args.program) as handle:
            source = handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read program: {exc}") from None
    variables = {}
    for item in args.var or ():
        name, __, raw = item.partition("=")
        if not raw:
            raise SystemExit(f"--var expects NAME=VALUE, got {item!r}")
        variables[name] = _parse_value(raw)
    database = Database(args.db)
    try:
        try:
            program = compile_source(source)
        except LangSyntaxError as exc:
            raise SystemExit(f"{args.program}: {exc}") from None
        result = program.execute(
            database.runtime,
            objects=database.objects_by_name(),
            variables=variables,
        )
        committed = bool(result)
        print(f"model: {program.model}")
        print(f"committed: {committed}")
        value = getattr(result, "value", None)
        if value is not None:
            print(f"value: {json.dumps(value)}")
        order = getattr(result, "execution_order", None)
        if order is not None:
            print(f"execution order: {' '.join(order) or '(none)'}")
        return 0 if committed else 1
    finally:
        database.close()


def cmd_log(args):
    """Dump every write-ahead-log record."""
    database = Database(args.db)
    try:
        log = database.storage.log
        records = log.records()
        for record in records:
            mark = getattr(record, "redo_lsn", None)  # checkpoint markers
            note = "" if mark is None else f"  <- restart redoes above LSN {mark}"
            if record.lsn == log.restart_from:
                note += "  <- restart point: this open decoded from here"
            print(f"{record}{note}")
        print(f"({len(records)} records)")
    finally:
        database.close()
    return 0


def cmd_checkpoint(args):
    """Flush all pages; with --truncate, discard the quiescent log."""
    database = Database(args.db)
    try:
        database.storage.checkpoint(active=(), truncate=args.truncate)
        action = "checkpointed and truncated" if args.truncate else "checkpointed"
        print(f"{action}; log now {len(database.storage.log.records())} records")
    finally:
        database.close()
    return 0


def cmd_recover(args):
    """Print the report of the restart recovery the open ran."""
    database = Database(args.db)
    try:
        print(database.report)
    finally:
        database.close()
    return 0


def build_parser():
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ASSET extended-transaction database (SIGMOD 1994 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--db", required=True, help="database directory")
        command.set_defaults(func=func)
        return command

    add("init", cmd_init, "create an empty database")
    create = add("create", cmd_create, "create named JSON objects")
    create.add_argument("pairs", nargs="+", metavar="NAME VALUE")
    get = add("get", cmd_get, "print objects (all when no names given)")
    get.add_argument("names", nargs="*")
    run = add("run", cmd_run, "compile and run a mini-language program")
    run.add_argument("program", help="program source file")
    run.add_argument("--var", action="append", metavar="NAME=VALUE")
    add("log", cmd_log, "dump the write-ahead log")
    checkpoint = add("checkpoint", cmd_checkpoint, "flush pages (+truncate)")
    checkpoint.add_argument("--truncate", action="store_true")
    add("recover", cmd_recover, "run restart recovery")
    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StorageError as exc:  # e.g. a log this version cannot read
        raise SystemExit(f"repro: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
