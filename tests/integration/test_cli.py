"""The command-line interface end to end."""

import os
import struct

import pytest

from repro.cli import Database, main
from repro.common.errors import StorageError
from repro.storage.log import decode_record


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "db")


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestLifecycle:
    def test_init_creates_files(self, db, capsys, tmp_path):
        code, out = run_cli(capsys, "init", "--db", db)
        assert code == 0
        assert (tmp_path / "db" / "pages.db").exists()
        assert (tmp_path / "db" / "wal.log").exists()

    def test_create_and_get(self, db, capsys):
        run_cli(capsys, "init", "--db", db)
        code, out = run_cli(
            capsys, "create", "--db", db, "stock", "5", "paid", "0"
        )
        assert code == 0
        code, out = run_cli(capsys, "get", "--db", db, "stock")
        assert code == 0
        assert "stock = 5" in out

    def test_get_all(self, db, capsys):
        run_cli(capsys, "create", "--db", db, "a", "1", "b", "2")
        __, out = run_cli(capsys, "get", "--db", db)
        assert "a = 1" in out and "b = 2" in out
        assert "__catalog__" not in out

    def test_duplicate_create_rejected(self, db, capsys):
        run_cli(capsys, "create", "--db", db, "a", "1")
        with pytest.raises(SystemExit):
            run_cli(capsys, "create", "--db", db, "a", "2")

    def test_string_values(self, db, capsys):
        run_cli(capsys, "create", "--db", db, "name", '"Delta"')
        __, out = run_cli(capsys, "get", "--db", db, "name")
        assert 'name = "Delta"' in out


class TestRunPrograms:
    def test_atomic_program(self, db, capsys, tmp_path):
        run_cli(capsys, "create", "--db", db, "x", "10")
        program = tmp_path / "p.asset"
        program.write_text("trans { write(x, read(x) + 5); return read(x); }")
        code, out = run_cli(capsys, "run", "--db", db, str(program))
        assert code == 0
        assert "committed: True" in out
        assert "value: 15" in out
        __, out = run_cli(capsys, "get", "--db", db, "x")
        assert "x = 15" in out

    def test_saga_program_with_variables(self, db, capsys, tmp_path):
        run_cli(capsys, "create", "--db", db, "stock", "3", "paid", "0")
        program = tmp_path / "order.asset"
        program.write_text(
            """
            saga {
              trans { write(stock, read(stock) - 1); }
              compensating trans { write(stock, read(stock) + 1); }
              trans {
                if (price > 100) { abort; }
                write(paid, read(paid) + price);
              }
            }
            """
        )
        code, out = run_cli(
            capsys, "run", "--db", db, str(program), "--var", "price=30"
        )
        assert code == 0 and "t1 t2" in out
        # An overpriced order aborts and compensates.
        code, out = run_cli(
            capsys, "run", "--db", db, str(program), "--var", "price=200"
        )
        assert code == 1
        assert "t1 ct1" in out
        __, out = run_cli(capsys, "get", "--db", db, "stock")
        assert "stock = 2" in out  # one sale, the failed one rolled back

    def test_workflow_program(self, db, capsys, tmp_path):
        run_cli(capsys, "create", "--db", db, "stock", "2", "backup", "9")
        program = tmp_path / "flow.asset"
        program.write_text(
            """
            workflow {
              task reserve {
                trans { if (read(stock) == 0) { abort; }
                        write(stock, read(stock) - 1); }
                else trans { write(backup, read(backup) - 1); }
              }
            }
            """
        )
        code, out = run_cli(capsys, "run", "--db", db, str(program))
        assert code == 0
        assert "model: workflow" in out
        __, out = run_cli(capsys, "get", "--db", db, "stock")
        assert "stock = 1" in out

    def test_failed_program_returns_nonzero(self, db, capsys, tmp_path):
        run_cli(capsys, "create", "--db", db, "x", "1")
        program = tmp_path / "p.asset"
        program.write_text("trans { abort; }")
        code, __ = run_cli(capsys, "run", "--db", db, str(program))
        assert code == 1

    def test_syntax_error_is_a_clean_exit(self, db, capsys, tmp_path):
        run_cli(capsys, "init", "--db", db)
        program = tmp_path / "bad.asset"
        program.write_text("trans { write(x 1); }")
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "run", "--db", db, str(program))
        assert "bad.asset" in str(exc.value)

    def test_missing_program_file_is_a_clean_exit(self, db, capsys):
        run_cli(capsys, "init", "--db", db)
        with pytest.raises(SystemExit, match="cannot read program"):
            run_cli(capsys, "run", "--db", db, "/nonexistent.asset")


class TestMaintenance:
    def test_log_dump(self, db, capsys):
        run_cli(capsys, "create", "--db", db, "x", "1")
        __, out = run_cli(capsys, "log", "--db", db)
        assert "CommitRecord" in out
        assert "records)" in out

    def test_checkpoint_truncate(self, db, capsys):
        run_cli(capsys, "create", "--db", db, "x", "1")
        __, out = run_cli(capsys, "checkpoint", "--db", db, "--truncate")
        # The marker, behind one image of each object: the catalog, x.
        assert "truncated; log now 3 records" in out
        # No second marker from that invocation's shutdown, nor from
        # ``log``'s: a tail that is only a marker needs no other.
        for __ in range(2):
            __, out = run_cli(capsys, "log", "--db", db)
            assert out.count("CheckpointRecord") == 1
            assert out.count("CompensationRecord") == 2
            assert "(3 records)" in out

    def test_recover(self, db, capsys):
        # Catalog (2 records) + x (3) + the shutdown checkpoint's marker:
        # the next invocation opens at that marker and decodes only it.
        run_cli(capsys, "create", "--db", db, "x", "1")
        code, out = run_cli(capsys, "recover", "--db", db)
        assert code == 0
        assert "RecoveryReport" in out
        assert "restart_from=6, scanned=1, redo_from=5, redone=0" in out

    def test_recover_and_log_show_the_checkpoint_mark(self, db, capsys):
        run_cli(capsys, "create", "--db", db, "x", "1")
        run_cli(capsys, "checkpoint", "--db", db)
        __, out = run_cli(capsys, "log", "--db", db)
        # One marker for ``create``'s clean shutdown, one for the
        # explicit checkpoint (whose own shutdown, with nothing logged
        # since, added none); the newest is where this open started.
        markers = [
            line for line in out.splitlines() if "CheckpointRecord" in line
        ]
        assert ["restart point" in line for line in markers] == [False, True]
        assert "(7 records)" in out  # the whole history all the same
        mark = int(markers[-1].split("above LSN ")[1].split()[0])
        assert mark == 6 and f"redo_lsn={mark}" in markers[-1]
        # ``log`` logged nothing, so it left the log as it found it.
        __, out = run_cli(capsys, "recover", "--db", db)
        assert (
            f"restart_from={mark + 1}, scanned=1, redo_from={mark},"
            " redone=0, undone=0"
        ) in out

    def test_an_invocation_that_logs_nothing_leaves_the_log_alone(
        self, db, capsys, tmp_path
    ):
        run_cli(capsys, "create", "--db", db, "x", "1")
        files = [tmp_path / "db" / name for name in ("wal.log", "wal.log.restart")]
        before = [path.read_bytes() for path in files]
        for command in ("log", "recover", "log"):
            run_cli(capsys, command, "--db", db)
            assert [path.read_bytes() for path in files] == before
        # ``get`` runs a transaction, and its commit record is logged.
        run_cli(capsys, "get", "--db", db, "x")
        assert files[0].read_bytes()[: len(before[0])] == before[0]
        __, out = run_cli(capsys, "log", "--db", db)
        assert out.count("CheckpointRecord") == 2

    def test_every_invocation_after_the_first_opens_at_the_restart_point(
        self, db, capsys
    ):
        run_cli(capsys, "create", "--db", db, "x", "1")
        for __ in range(3):
            run_cli(capsys, "get", "--db", db, "x")
        database = Database(db)
        try:
            log = database.storage.log
            assert len(log) == 1 and log.base == len(log.records()) - 1
        finally:
            database.close()

    def test_a_torn_catalog_page_is_rebuilt_at_open(
        self, db, capsys, tmp_path
    ):
        run_cli(capsys, "create", "--db", db, "a", "1", "b", "2")
        run_cli(capsys, "create", "--db", db, "c", "3")
        database = Database(db)
        page_id = database.storage.objects._locations[1][0]
        page_size = database.storage.disk.page_size
        database.close()
        pages = tmp_path / "db" / "pages.db"
        image = bytearray(pages.read_bytes())
        start = (page_id - 1) * page_size
        image[start + 8 : start + page_size] = bytes(page_size - 8)
        pages.write_bytes(bytes(image))
        database = Database(db)
        try:
            assert database.storage.objects.damaged_pages == [page_id]
            assert database.report.redo_from == 0  # redo read the prefix
            assert sorted(database.catalog()) == ["a", "b", "c"]
            assert [database.get(name) for name in "abc"] == [1, 2, 3]
        finally:
            database.close()
        __, out = run_cli(capsys, "get", "--db", db)
        assert out.splitlines() == ["a = 1", "b = 2", "c = 3"]

    def test_data_survives_reopen(self, db, capsys):
        run_cli(capsys, "create", "--db", db, "x", "42")
        database = Database(db)
        try:
            assert database.get("x") == 42
        finally:
            database.close()


class TestOldLogsAreRefused:
    def test_a_log_written_before_updates_became_one_record(
        self, db, capsys, tmp_path
    ):
        """Type bytes 1 and 2 were the before- and after-image records
        an update was written as until PR 21.  Nothing decodes them any
        more — and nothing misreads them: the decoder names the record,
        and ``recover`` / ``log`` exit non-zero saying so."""

        def old_image_record(rtype, lsn, image):
            # type, lsn, tid | oid | image length (absent: all ones), image
            length = 0xFFFFFFFF if image is None else len(image)
            return (
                struct.pack("<BQQ", rtype, lsn, 1)
                + struct.pack("<QI", 1, length)
                + (image or b"")
            )

        records = [old_image_record(1, 1, None), old_image_record(2, 2, b"{}")]
        for rtype, raw in zip((1, 2), records):
            with pytest.raises(StorageError) as refused:
                decode_record(raw)
            message = str(refused.value)
            assert f"LSN {rtype}" in message and f"type byte {rtype}" in message
            assert "written before updates became one record" in message

        os.makedirs(db)
        with open(os.path.join(db, "wal.log"), "wb") as handle:
            for raw in records:
                handle.write(struct.pack("<I", len(raw)) + raw)
        for command in ("recover", "log"):
            with pytest.raises(SystemExit) as exit_:
                run_cli(capsys, command, "--db", db)
            assert exit_.value.code not in (0, None)
            assert "LSN 1 has type byte 1" in str(exit_.value.code)
            assert "written before updates became one record" in str(
                exit_.value.code
            )
