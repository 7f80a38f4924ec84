"""Multi-writer contention tests for the SQLite result store.

The serve deployment model is several *processes* (a server, solo
CLI runs, shard workers) sharing one store file.  SQLite handles that
only if the store opens with WAL journaling and a real busy timeout —
without them, two concurrent writers produce ``database is locked``
errors under contention.  These tests are the regression net for that
configuration: real OS processes, one store file, interleaved
commit-per-row writes.
"""

from __future__ import annotations

import sqlite3
import subprocess
import sys
from pathlib import Path

from repro.store import ResultStore

#: Writer subprocess: hammer the shared store with commit-per-row puts.
_WRITER = """
import sys
from repro.store import ResultStore

path, tag, rows = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = ResultStore(path, fingerprint="contention", commit_every=1)
for index in range(rows):
    store.put(f"{tag}:{index}", {"writer": tag, "index": index})
store.close()
print("ok")
"""


def _spawn_writer(path: Path, tag: str, rows: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", _WRITER, str(path), tag, str(rows)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestTwoProcessContention:
    def test_concurrent_writers_lose_no_rows(self, tmp_path) -> None:
        path = tmp_path / "shared.sqlite"
        # Create the store (and its schema) before the race so both
        # writers contend on row inserts, not on schema creation.
        ResultStore(path, fingerprint="contention").close()

        rows = 200
        writers = [
            _spawn_writer(path, "alpha", rows),
            _spawn_writer(path, "beta", rows),
        ]
        for proc in writers:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "ok" in out
            assert "database is locked" not in err

        store = ResultStore(path, fingerprint="contention")
        try:
            assert len(store) == 2 * rows
            for tag in ("alpha", "beta"):
                for index in range(rows):
                    record = store.get(f"{tag}:{index}")
                    assert record == {"writer": tag, "index": index}
        finally:
            store.close()

    def test_reader_sees_committed_rows_while_writer_is_open(
        self, tmp_path
    ) -> None:
        # WAL's whole point for serve: a second connection can read
        # committed rows while the server's writer connection is live.
        path = tmp_path / "shared.sqlite"
        writer = ResultStore(path, fingerprint="contention", commit_every=1)
        try:
            writer.put("k", {"v": 1})  # commit_every=1 commits at once
            reader = ResultStore(path, fingerprint="contention")
            try:
                assert reader.get("k") == {"v": 1}
            finally:
                reader.close()
        finally:
            writer.close()


class TestWalConfiguration:
    def test_store_opens_in_wal_mode(self, tmp_path) -> None:
        path = tmp_path / "wal.sqlite"
        store = ResultStore(path, fingerprint="x")
        try:
            mode = store._connection().execute(
                "PRAGMA journal_mode"
            ).fetchone()[0]
            assert mode == "wal"
        finally:
            store.close()

    def test_wal_persists_across_reopens(self, tmp_path) -> None:
        path = tmp_path / "wal.sqlite"
        ResultStore(path, fingerprint="x").close()
        # Raw sqlite connection (no pragma of our own): WAL is a
        # property of the database file, not of the connection.
        conn = sqlite3.connect(path)
        try:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
        finally:
            conn.close()

    def test_busy_timeout_is_applied(self, tmp_path) -> None:
        store = ResultStore(
            tmp_path / "t.sqlite", fingerprint="x", busy_timeout=7.5
        )
        try:
            ms = store._connection().execute(
                "PRAGMA busy_timeout"
            ).fetchone()[0]
            assert ms == 7500
        finally:
            store.close()
