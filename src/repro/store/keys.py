"""Canonical scenario serialization and content-addressed keys.

A store key must be a pure function of *what is being computed*: the
scenario value and the code that evaluates it.  :func:`canonical_bytes`
maps a scenario (dataclass, mapping, sequence, scalar) to a stable byte
string — type-tagged, key-sorted, float-exact — and
:func:`scenario_key` hashes it together with a code fingerprint.  Two
processes on two machines computing the same scenario under the same
code therefore address the same store row, which is what makes sharded
sweeps mergeable and resumed sweeps exact.

The fingerprint is :func:`package_fingerprint`: it hashes every
``*.py`` file of a package, so a change anywhere in the code the
workers may call — not only in the modules that define them — opens a
fresh key space.  A stale cache hit is worse than a cold start.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from importlib import import_module
from pathlib import Path
from types import ModuleType
from typing import Any

from repro.utils.checks import require
from repro.utils.jsonsafe import field_names

#: Bump when the canonical encoding or store record format changes;
#: part of every fingerprint, so old stores can never serve new code.
STORE_FORMAT_VERSION = 1

#: The encoder of :func:`canonical_bytes`: one instance, not one per
#: call (``json.dumps`` with keywords builds a fresh encoder every time).
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
)


def _encode(value: Any) -> Any:
    """Map ``value`` onto a JSON-serializable canonical form.

    The encoding is type-tagged so that distinct Python values never
    collide: tuples and lists are distinguished, dataclasses carry
    their qualified type name, and non-finite floats (legal scenario
    and result values here — diverged bounds are ``inf``) become tagged
    strings because strict JSON cannot represent them.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return {"__float__": repr(value)}
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                name: _encode(getattr(value, name))
                for name in field_names(cls)
            },
        }
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(item) for item in value]}
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        for key in value:
            require(
                isinstance(key, str),
                f"canonical mappings need str keys, got {key!r}",
            )
        return {key: _encode(item) for key, item in value.items()}
    raise ValueError(
        f"cannot canonicalize a {type(value).__name__}: {value!r}"
    )


def canonical_bytes(value: Any) -> bytes:
    """Stable byte serialization of a scenario value.

    Deterministic across processes and platforms: mapping keys are
    sorted, floats use ``repr`` round-trip semantics, container types
    are tagged.  Raises :class:`ValueError` for values outside the
    canonical vocabulary (sets, arbitrary objects…), so accidental
    non-determinism fails loudly instead of silently forking keys.
    """
    return _CANONICAL_ENCODER.encode(_encode(value)).encode("ascii")


def scenario_key(scenario: Any, fingerprint: str = "") -> str:
    """Content-addressed store key for ``scenario`` under ``fingerprint``.

    Args:
        scenario: Any value :func:`canonical_bytes` accepts.
        fingerprint: Code fingerprint (see :func:`package_fingerprint`);
            different fingerprints address disjoint key spaces, so
            results computed by different code can never be confused.

    Returns:
        A 64-character SHA-256 hex digest.
    """
    digest = hashlib.sha256()
    digest.update(f"v{STORE_FORMAT_VERSION}".encode("ascii"))
    digest.update(b"\x00")
    digest.update(fingerprint.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_bytes(scenario))
    return digest.hexdigest()


def package_fingerprint(package: str | ModuleType = "repro") -> str:
    """Fingerprint of *every* ``*.py`` file of ``package``.

    The conservative fingerprint: any change anywhere in the package —
    a bound algorithm, a generator, a constant — invalidates all cached
    results.  A cold cache costs minutes; a stale hit costs a wrong
    figure, so the CLI always uses this one.
    """
    module = (
        import_module(package) if isinstance(package, str) else package
    )
    path = getattr(module, "__file__", None)
    require(
        path is not None and Path(path).name == "__init__.py",
        f"{module.__name__!r} is not a package with a source directory",
    )
    sources: dict[str, bytes] = {}
    _collect_sources(Path(path).parent, "", sources)
    return _digest_sources(sources)


def _collect_sources(
    directory: str | Path, prefix: str, sources: dict[str, bytes]
) -> None:
    """Add every ``*.py`` file under ``directory`` to ``sources``.

    One ``os.scandir`` walk keyed by relative POSIX name — the same map
    ``sorted(root.rglob("*.py"))`` yields, without building a ``Path``
    per entry: subdirectories are entered unless they are symlinks, and
    ``_digest_sources`` sorts the names, so walk order is irrelevant.
    Files are read with raw ``os.read`` calls sized by ``fstat``: a
    buffered file object per source costs more than the read, and
    fixed-size reads leave the heap fragmented.
    """
    with os.scandir(directory) as entries:
        for entry in entries:
            name = prefix + entry.name
            if entry.is_dir(follow_symlinks=False):
                _collect_sources(entry.path, name + "/", sources)
            elif entry.name.endswith(".py"):
                fd = os.open(entry.path, os.O_RDONLY)
                try:
                    # One read to the end, one more to see end of file.
                    size = os.fstat(fd).st_size + 1
                    data = os.read(fd, size)
                    while more := os.read(fd, size):
                        data += more
                finally:
                    os.close(fd)
                sources[name] = data


def _digest_sources(sources: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    digest.update(f"v{STORE_FORMAT_VERSION}".encode("ascii"))
    for name in sorted(sources):
        digest.update(b"\x00")
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(sources[name])
    return digest.hexdigest()
