"""The on-disk result store: one SQLite file, content-addressed rows.

Schema (format version :data:`repro.store.keys.STORE_FORMAT_VERSION`):

* ``results(key TEXT PRIMARY KEY, record TEXT)`` — one row per computed
  scenario; ``record`` is the sink record as strict JSON
  (:func:`dumps_record`: keys in the record's insertion order,
  non-finite floats as ``"inf"``/``"-inf"``/``"nan"`` strings);
* ``meta(key TEXT PRIMARY KEY, value TEXT)`` — the code fingerprint the
  rows were computed under and the sweep manifest (the parameters that
  regenerate the scenario grid, written by the CLI so ``repro merge``
  can rebuild the final output without re-specifying them).

Writes are batched: :meth:`ResultStore.put` commits every
``commit_every`` rows and on :meth:`~ResultStore.close`, so a killed
sweep loses at most the last uncommitted batch — the resume pass simply
recomputes those scenarios.

Durability: the store runs in WAL mode with ``synchronous=NORMAL``.  A
commit reaches the WAL file without an fsync, so every committed batch
survives ``SIGKILL`` of the writing process; only an OS crash or a power
loss can roll back the last few commits, and the database stays
consistent even then.  The rows are a cache of deterministic results,
so a resume after such a loss recomputes whatever the lost commits held.

Stores merge by key: rows for the same key are interchangeable because
the key already binds scenario *and* code fingerprint, so
:func:`merge_stores` can combine shards computed on different machines
into one store with first-writer-wins semantics.
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Iterable, Iterator, Mapping, Sequence
from pathlib import Path
from typing import Any

from repro.utils.checks import require
from repro.utils.jsonsafe import json_safe

#: Keys per query of :meth:`ResultStore.records` and
#: :meth:`ResultStore.missing_indices`, under SQLite's historical limit
#: of 999 bound parameters.
_MEMBERSHIP_CHUNK = 500

#: Default number of puts between commits (checkpoint granularity).
DEFAULT_COMMIT_EVERY = 64

#: How long a writer waits on a locked database before erroring (s).
#: Concurrent writers (shard runs into one store, the serve job
#: executor next to a reader) serialize on SQLite's write lock; a
#: generous timeout turns contention into a wait, not a crash.
DEFAULT_BUSY_TIMEOUT = 30.0

#: The encoder of :func:`dumps_record`: one instance, not one per call
#: (``json.dumps`` with keywords builds a fresh encoder every time).
_RECORD_ENCODER = json.JSONEncoder(allow_nan=False)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    record TEXT NOT NULL
);
"""


def dumps_record(record: Mapping[str, Any]) -> str:
    """Serialize a sink record to the store's strict-JSON row format.

    Key *insertion* order is preserved (not sorted): records round-trip
    through the store in their original column order, so a
    :class:`~repro.engine.sinks.CsvSink` fed from the store infers the
    same header as one fed fresh results.
    """
    safe = {key: json_safe(value) for key, value in record.items()}
    return _RECORD_ENCODER.encode(safe)


class ResultStore:
    """A persistent ``key → record`` cache backed by one SQLite file.

    Args:
        path: Store file; parent directories are created on demand.
        fingerprint: Code fingerprint the caller computes results under.
            Recorded on first use; later opens with a *different*
            fingerprint fail loudly — a store written by other code must
            never serve (or silently absorb) results.  ``None`` adopts
            whatever the store already records.
        commit_every: Puts between automatic commits (checkpoint
            granularity; lower is safer, higher is faster).
        busy_timeout: Seconds a write waits on another writer's lock
            before failing.  Multi-writer access (two shard processes
            sharing a store, the serve job executor) is legal: the
            store runs in WAL mode, so readers never block writers and
            concurrent writers queue on this timeout instead of dying
            with ``database is locked``.
    """

    def __init__(
        self,
        path: Path | str,
        fingerprint: str | None = None,
        commit_every: int = DEFAULT_COMMIT_EVERY,
        busy_timeout: float = DEFAULT_BUSY_TIMEOUT,
    ) -> None:
        require(commit_every > 0, "commit_every must be > 0")
        require(busy_timeout >= 0, "busy_timeout must be >= 0")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn: sqlite3.Connection | None = sqlite3.connect(
            self.path, timeout=busy_timeout
        )
        try:
            # WAL keeps committed batches durable across SIGKILL *and*
            # lets concurrent processes read while a writer commits —
            # the access pattern of a shared serve store.  Under WAL,
            # NORMAL drops the per-commit fsync and keeps that promise
            # (see the module docstring).  On filesystems where WAL is
            # unsupported SQLite keeps the prior journal mode, and the
            # default FULL sync with it; correctness is unaffected,
            # only concurrency.
            (mode,) = self._conn.execute("PRAGMA journal_mode=WAL").fetchone()
            if mode == "wal":
                self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError as exc:
            self._conn.close()  # not close(): commit would raise again
            self._conn = None
            raise ValueError(
                f"{self.path} is not a valid result store: {exc}"
            ) from exc
        self._commit_every = commit_every
        self._uncommitted = 0
        stored = self._get_meta("fingerprint")
        if fingerprint is None:
            self.fingerprint = stored or ""
        else:
            if stored is not None and stored != fingerprint:
                self.close()
                raise ValueError(
                    f"store {self.path} was written under a different "
                    f"code fingerprint ({stored[:12]}… != "
                    f"{fingerprint[:12]}…); refusing to mix results — "
                    "use a fresh store"
                )
            if stored is None:
                self._set_meta("fingerprint", fingerprint)
            self.fingerprint = fingerprint

    # ------------------------------------------------------------------
    # meta
    # ------------------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        require(self._conn is not None, f"store {self.path} is closed")
        return self._conn

    def _get_meta(self, key: str) -> str | None:
        row = self._connection().execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def _set_meta(self, key: str, value: str) -> None:
        conn = self._connection()
        conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (key, value),
        )
        conn.commit()

    @property
    def manifest(self) -> dict[str, Any] | None:
        """The sweep manifest (parameters regenerating the scenario
        grid), or ``None`` when none has been recorded."""
        raw = self._get_meta("manifest")
        return None if raw is None else json.loads(raw)

    def set_manifest(self, manifest: Mapping[str, Any]) -> None:
        """Record the sweep manifest; re-recording must be identical.

        A store only ever belongs to one sweep shape — a manifest
        mismatch means the caller is resuming with different parameters,
        which would interleave incompatible scenario grids.
        """
        existing = self.manifest
        new = dict(manifest)
        require(
            existing is None or existing == new,
            f"store {self.path} already records manifest {existing}, "
            f"which differs from {new}; use a fresh store",
        )
        if existing is None:
            self._set_meta(
                "manifest", json.dumps(new, sort_keys=True, allow_nan=False)
            )

    @property
    def shard(self) -> str | None:
        """The shard scope this store was recorded under (a canonical
        ``i/N`` spec or ``"full"``), or ``None`` when none is set."""
        return self._get_meta("shard")

    def set_shard(self, scope: str) -> None:
        """Record the shard scope; re-recording must be identical.

        A store belongs to exactly one slice of one scenario grid.
        Resuming (or extending) it under a *different* ``--shard`` spec
        would silently interleave incompatible slices and emit a
        partial result file, so a mismatch fails loudly instead.
        """
        existing = self.shard
        require(
            existing is None or existing == scope,
            f"store {self.path} was recorded for shard {existing!r}, "
            f"but this run requests shard {scope!r}; mixing shard "
            "slices would silently produce a partial result file — "
            "rerun with the recorded shard spec (or none, for 'full') "
            "or use a fresh store",
        )
        if existing is None:
            self._set_meta("shard", scope)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def put(self, key: str, record: Mapping[str, Any]) -> bool:
        """Insert (or overwrite) one record; commits every
        ``commit_every`` puts.

        Returns:
            Whether this put committed, making every row put so far
            durable and visible to other connections.
        """
        self._connection().execute(
            "INSERT OR REPLACE INTO results (key, record) VALUES (?, ?)",
            (key, dumps_record(record)),
        )
        self._uncommitted += 1
        if self._uncommitted < self._commit_every:
            return False
        self.commit()
        return True

    def get(self, key: str) -> dict[str, Any] | None:
        """The record stored under ``key``, or ``None``."""
        row = self._connection().execute(
            "SELECT record FROM results WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def _chunks(
        self, keys: Sequence[str], columns: str
    ) -> Iterator[tuple[int, Sequence[str], Iterator[Any]]]:
        """``(start, chunk, rows)`` per :data:`_MEMBERSHIP_CHUNK` keys:
        the rows of one ``SELECT columns … WHERE key IN (chunk)``."""
        conn = self._connection()
        for start in range(0, len(keys), _MEMBERSHIP_CHUNK):
            chunk = keys[start : start + _MEMBERSHIP_CHUNK]
            marks = ", ".join("?" * len(chunk))
            yield start, chunk, conn.execute(
                f"SELECT {columns} FROM results WHERE key IN ({marks})", chunk
            )

    def records(
        self, keys: Sequence[str]
    ) -> Iterator[dict[str, Any] | None]:
        """The record stored under each of ``keys`` (``None`` where
        absent), in order.

        One query per :data:`_MEMBERSHIP_CHUNK` keys instead of one
        :meth:`get` per key; only one chunk's rows are held at a time.
        """
        for _, chunk, rows in self._chunks(keys, "key, record"):
            found = dict(rows)
            for key in chunk:
                raw = found.get(key)
                yield None if raw is None else json.loads(raw)

    def missing_indices(self, keys: Sequence[str]) -> Iterator[int]:
        """Positions in ``keys`` whose key has no record, in order.

        One query per :data:`_MEMBERSHIP_CHUNK` keys instead of one per
        key; only one chunk's found keys are held at a time.
        """
        for start, chunk, rows in self._chunks(keys, "key"):
            found = {key for (key,) in rows}
            for offset, key in enumerate(chunk):
                if key not in found:
                    yield start + offset

    def __contains__(self, key: str) -> bool:
        return (
            self._connection()
            .execute("SELECT 1 FROM results WHERE key = ?", (key,))
            .fetchone()
            is not None
        )

    def __len__(self) -> int:
        return self._connection().execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()[0]

    def keys(self) -> Iterator[str]:
        """All keys, sorted (deterministic iteration order)."""
        for (key,) in self._connection().execute(
            "SELECT key FROM results ORDER BY key"
        ):
            yield key

    def items(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """All ``(key, record)`` pairs, sorted by key."""
        for key, record in self._connection().execute(
            "SELECT key, record FROM results ORDER BY key"
        ):
            yield key, json.loads(record)

    def merge_from(self, other: "ResultStore") -> int:
        """Absorb ``other``'s rows (first writer wins); returns the
        number of new rows.

        Both stores must carry the same code fingerprint — keys bind
        the fingerprint, so rows from a different one would be
        unreachable dead weight at best and a bug mask at worst.
        """
        require(
            other.fingerprint == self.fingerprint,
            f"cannot merge {other.path} (fingerprint "
            f"{other.fingerprint[:12]}…) into {self.path} "
            f"({self.fingerprint[:12]}…): stores were computed under "
            "different code",
        )
        conn = self._connection()
        before = len(self)
        conn.executemany(
            "INSERT OR IGNORE INTO results (key, record) VALUES (?, ?)",
            other._connection().execute("SELECT key, record FROM results"),
        )
        self.commit()
        return len(self) - before

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Force a durable checkpoint of all pending puts."""
        self._connection().commit()
        self._uncommitted = 0

    def close(self) -> None:
        """Commit and release the connection; idempotent.

        The connection is released even when the final commit fails
        (the error still propagates), so a broken store never leaks an
        open handle.
        """
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.commit()
            finally:
                conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def merge_stores(
    target: ResultStore, sources: Iterable[ResultStore]
) -> int:
    """Merge every source store into ``target``; returns rows added.

    Manifests must agree wherever present: the target adopts the first
    manifest it sees, and later sources with a *different* manifest are
    rejected (they describe a different sweep).
    """
    added = 0
    for source in sources:
        manifest = source.manifest
        if manifest is not None:
            target.set_manifest(manifest)
        added += target.merge_from(source)
    return added
