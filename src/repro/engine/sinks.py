"""Streaming result sinks for the batch engine.

Sweeps of 10^5+ scenarios must not accumulate every result in memory;
the engine therefore emits records *incrementally*, in scenario order,
to a :class:`ResultSink`.  Records are flat mappings (column -> scalar);
:func:`as_record` converts the dataclass results produced by the sweep
workers.

Sinks are context managers::

    with JsonlSink(path) as sink:
        run_batch(worker, scenarios, sink=sink)
"""

from __future__ import annotations

import csv
import dataclasses
import json
from collections.abc import Mapping
from pathlib import Path
from typing import IO, Any

from repro.utils.checks import require
from repro.utils.jsonsafe import field_names, json_safe


#: The encoder of :func:`record_line`: one instance, not one per call
#: (``json.dumps`` with keywords builds a fresh encoder every time).
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)

#: Field values :func:`as_record` passes through without asking whether
#: they are mappings or dataclasses (``bool`` is an ``int``).
_SCALARS = (str, int, float, tuple)


def as_record(result: Any) -> dict[str, Any]:
    """Flatten a worker result into a sink record.

    Dataclasses become field dicts (one level; nested mappings are
    splatted with dotted keys), mappings are copied, anything else is
    wrapped under a ``"value"`` key.  Fields are read as they are, not
    deep-copied (``dataclasses.asdict`` takes several times as long);
    a field holding a dataclass is splatted as its ``asdict``.
    """
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        raw: Mapping[str, Any] = {
            name: getattr(result, name) for name in field_names(type(result))
        }
    elif isinstance(result, Mapping):
        raw = result
    else:
        return {"value": result}
    record: dict[str, Any] = {}
    for key, value in raw.items():
        if isinstance(value, _SCALARS):
            record[key] = value
            continue
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = dataclasses.asdict(value)
        if isinstance(value, Mapping):
            for sub_key, sub_value in value.items():
                record[f"{key}.{sub_key}"] = sub_value
        else:
            record[key] = value
    return record


def record_line(record: Mapping[str, Any]) -> str:
    """The exact one-line strict-JSON form :class:`JsonlSink` writes.

    Factored out so other record consumers — the :mod:`repro.serve`
    job streams — produce lines *byte-identical* to a local JSONL sink
    by construction rather than by parallel implementation.
    """
    safe = {key: json_safe(value) for key, value in record.items()}
    return _LINE_ENCODER.encode(safe)


class ResultSink:
    """Base sink: a write-only record consumer with context management."""

    def write(self, record: Mapping[str, Any]) -> None:
        """Consume one result record (in scenario order)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; idempotent."""

    def __enter__(self) -> "ResultSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MemorySink(ResultSink):
    """Collects records into :attr:`records` (tests, small sweeps)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def write(self, record: Mapping[str, Any]) -> None:
        self.records.append(dict(record))


class JsonlSink(ResultSink):
    """One JSON object per line — the streaming format for large sweeps.

    Non-finite floats (diverged bounds) are written as the strings
    ``"inf"``/``"-inf"``/``"nan"`` so every line stays strict JSON.

    Args:
        path: Target file; parent directories are created on demand.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = open(self.path, "w")
        self.written = 0

    def write(self, record: Mapping[str, Any]) -> None:
        require(self._handle is not None, "sink is closed")
        self._handle.write(record_line(record))
        self._handle.write("\n")
        self.written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class CsvSink(ResultSink):
    """CSV with a header row inferred from the first record.

    Later records must use the same columns (missing keys become empty
    cells; unexpected keys raise, so schema drift fails fast).

    Args:
        path: Target file; parent directories are created on demand.
        columns: Optional explicit column order; default is the first
            record's insertion order.
    """

    def __init__(self, path: Path | str, columns: list[str] | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = open(self.path, "w", newline="")
        self._writer: csv.DictWriter | None = None
        self._columns = list(columns) if columns is not None else None
        self.written = 0

    def write(self, record: Mapping[str, Any]) -> None:
        require(self._handle is not None, "sink is closed")
        if self._writer is None:
            if self._columns is None:
                self._columns = list(record.keys())
            self._writer = csv.DictWriter(self._handle, fieldnames=self._columns)
            self._writer.writeheader()
        self._writer.writerow(dict(record))
        self.written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
