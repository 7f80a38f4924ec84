"""Execution options shared by every workload of the facade.

:class:`ExecutionOptions` is the one place the ``--jobs/--chunk/
--store/--resume/--shard`` + sink semantics live: the CLI parses its
shared flags into one instance, programmatic callers construct one
directly, and :mod:`repro.api.execution` interprets it identically for
every workload — so ``fig5``, ``study``, ``sweep`` and ``campaign``
cannot drift apart in how they cache, resume or shard.

The shard grammar (``i/N``, 1-based, leading zeros cosmetic) also lives
here; :func:`parse_shard` / :func:`format_shard` are re-exported by
:mod:`repro.cli` for backwards compatibility.  So does the CLI flag
table of the shared surface (:data:`EXECUTION_FLAGS`), which
:func:`repro.api.workloads.register_workload` validates each workload's
flag groups against.
"""

from __future__ import annotations

import argparse
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.checks import require

#: Sink formats the facade understands.
SINK_FORMATS = ("jsonl", "csv")

#: argparse kwargs of each shared execution-flag group (see
#: ``Workload.flags``); parsed once, consumed as one ExecutionOptions.
EXECUTION_FLAGS: dict[str, list[tuple[str, dict]]] = {
    "engine": [
        (
            "--jobs",
            dict(
                type=int, default=None,
                help="batch-engine workers (default: inline)",
            ),
        ),
        (
            "--chunk",
            dict(
                type=int, default=None,
                help="scenarios per engine chunk (default: auto)",
            ),
        ),
    ],
    "sink": [
        ("--format", dict(choices=["jsonl", "csv"], default="jsonl")),
        (
            "--out",
            dict(
                default=None,
                help="output path (default: results/<command>.<format>)",
            ),
        ),
    ],
    "store": [
        (
            "--store",
            dict(
                default=None,
                help="persistent result store (SQLite); already-computed "
                "scenarios are skipped and fresh ones checkpointed",
            ),
        ),
        (
            "--resume",
            dict(
                action="store_true",
                help="continue an interrupted run from an existing "
                "--store",
            ),
        ),
        (
            # Test hook: deterministically simulate a mid-run kill by
            # aborting after N freshly computed results.
            "--fail-after",
            dict(type=int, default=None, help=argparse.SUPPRESS),
        ),
    ],
    "shard": [
        (
            "--shard",
            dict(
                default=None, metavar="I/N",
                help="evaluate only shard I of N (1-based); combine "
                "shard stores with 'repro merge'",
            ),
        ),
    ],
}


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse a ``i/N`` shard spec into ``(index, count)``.

    ``index`` is 1-based: ``1/4`` … ``4/4`` partition a sweep into four
    disjoint, deterministic slices (scenario ``k`` belongs to shard
    ``(k % N) + 1``), so independent machines can each run one shard
    and ``repro merge`` reassembles the full result set.

    Cosmetic variants (leading zeros, e.g. ``01/04``) parse to the
    same pair; :func:`format_shard` renders the canonical form, which
    is what gets recorded in stores so equal specs always compare
    equal.
    """
    match = re.fullmatch(r"(\d+)/(\d+)", spec)
    if match is None:
        raise ValueError(
            f"invalid shard spec {spec!r}: expected I/N, e.g. 2/4"
        )
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1:
        raise ValueError(
            f"invalid shard spec {spec!r}: shard count N must be >= 1"
        )
    if not 1 <= index <= count:
        raise ValueError(
            f"invalid shard spec {spec!r}: need 1 <= I <= N"
        )
    return index, count


def format_shard(index: int, count: int) -> str:
    """Canonical ``i/N`` rendering of a parsed shard spec."""
    return f"{index}/{count}"


@dataclass(frozen=True)
class SinkSpec:
    """One final-output file of a run.

    Attributes:
        path: Target file path.
        format: ``"jsonl"`` or ``"csv"``; ``None`` infers from the
            path suffix (``.csv`` → csv, anything else → jsonl).
    """

    path: str
    format: str | None = None

    def __post_init__(self) -> None:
        require(
            self.format is None or self.format in SINK_FORMATS,
            f"unknown sink format {self.format!r}; expected one of "
            f"{', '.join(SINK_FORMATS)}",
        )

    @property
    def resolved_format(self) -> str:
        """The effective format (explicit, else suffix-inferred)."""
        if self.format is not None:
            return self.format
        return "csv" if str(self.path).endswith(".csv") else "jsonl"


@dataclass(frozen=True)
class ExecutionOptions:
    """How a :class:`repro.api.RunRequest` is evaluated.

    Every knob is optional; the defaults reproduce the inline,
    store-less, unsharded single-machine run.

    Attributes:
        jobs: Batch-engine pool width (``None`` = inline reference
            path; results are bit-identical for every setting).
        chunk: Scenarios per engine chunk (``None`` = auto).
        store: Path of the persistent result store (opened, manifested
            and closed by the runner), or ``None``.  Validated at
            construction.
        resume: Continue an interrupted run from an existing ``store``
            path; requires ``store`` and fails loudly when the store
            does not exist yet.
        shard: ``"i/N"`` slice of the scenario grid (1-based), or
            ``None`` for the full grid.  Validated at construction.
        sinks: Final-output files; strings are coerced to
            :class:`SinkSpec` with suffix-inferred formats.  Empty
            means "use the workload's default artifact path" (or no
            record output, for workloads without one).
        format: Default sink format when ``sinks`` is empty and the
            workload emits records to its default path.
        results_dir: Overrides the artifact directory (default: the
            ``REPRO_RESULTS_DIR`` environment variable or ``results/``).
        fail_after: Test seam — deterministically simulate a mid-run
            kill by raising :class:`KeyboardInterrupt` after N freshly
            checkpointed results (store-backed runs only).
    """

    jobs: int | None = None
    chunk: int | None = None
    store: str | Path | None = None
    resume: bool = False
    shard: str | None = None
    sinks: tuple[SinkSpec, ...] = field(default=())
    format: str = "jsonl"
    results_dir: str | Path | None = None
    fail_after: int | None = None

    def __post_init__(self) -> None:
        require(
            self.format in SINK_FORMATS,
            f"unknown sink format {self.format!r}; expected one of "
            f"{', '.join(SINK_FORMATS)}",
        )
        sinks = tuple(
            spec if isinstance(spec, SinkSpec) else SinkSpec(str(spec))
            for spec in self.sinks
        )
        object.__setattr__(self, "sinks", sinks)
        require(
            self.store is None or isinstance(self.store, (str, Path)),
            f"store must be a path, got {type(self.store).__name__}",
        )
        if self.shard is not None:
            parse_shard(self.shard)  # fail early on malformed specs

    @property
    def shard_pair(self) -> tuple[int, int] | None:
        """The parsed ``(index, count)`` slice, or ``None``."""
        return None if self.shard is None else parse_shard(self.shard)

    @property
    def shard_scope(self) -> str:
        """The canonical scope a store records: ``i/N`` or ``full``."""
        if self.shard is None:
            return "full"
        return format_shard(*parse_shard(self.shard))
