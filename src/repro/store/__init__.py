"""Persistent result store (substrate S13): content-addressed caching
and checkpointing for sweeps.

Exact floating-NPR analyses are expensive and the evaluation space
(Q grids × functions × task-set seeds) is huge, so recomputing a sweep
from scratch — or losing a half-finished one to a crash — is the
dominant cost at scale.  This package makes sweep results *persistent*
and *addressable*:

* :mod:`repro.store.keys` canonicalizes scenarios (dataclasses, plain
  mappings, tuples, floats — including non-finite ones) into a stable
  byte form and hashes them, together with a code fingerprint, into a
  content-addressed key.  Same scenario + same code → same key, on any
  machine, in any process, in any order.
* :mod:`repro.store.backend` is the on-disk store: a single SQLite file
  holding ``key → record`` rows plus a small ``meta`` table (code
  fingerprint, sweep manifest).  It supports get/put/iterate and
  merging other stores, so shards computed on different machines
  combine into one result set.

Layering: ``store`` sits beside ``engine`` — it depends only on
``repro.utils`` — and :mod:`repro.engine.cached` glues the two
together (skip cached scenarios, checkpoint fresh ones, emit final
sinks from the store in scenario order).  See ``docs/architecture.md``.
"""

from repro.store.backend import ResultStore, merge_stores
from repro.store.keys import (
    canonical_bytes,
    package_fingerprint,
    scenario_key,
)

__all__ = [
    "ResultStore",
    "merge_stores",
    "canonical_bytes",
    "package_fingerprint",
    "scenario_key",
]
