"""Deterministic chunking and seed derivation for the batch engine.

All primitives are pure functions of their inputs so a sweep's
decomposition — and therefore its results — never depends on worker
count or scheduling order:

* :func:`grouped_chunk_plan` splits a scenario stream into index chunks
  that never span two shared-artifact groups (the partition by
  context key, :mod:`repro.engine.context`), so each pool
  worker builds a group's context once and evaluates its whole slice —
  while the engine still emits results in original scenario order.
  With one key for every scenario the chunks are the contiguous
  ``chunk_size`` slices of the stream;
* :func:`derive_seed` maps ``(base_seed, scenario_index)`` to an
  independent 63-bit stream seed with a SplitMix64 finalizer, so every
  scenario owns its randomness no matter which worker executes it.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.utils.checks import require

_MASK64 = (1 << 64) - 1


def default_chunk_size(total: int, workers: int) -> int:
    """Chunk size targeting ~4 chunks per worker (bounded below by 1).

    Small enough to stream results and balance load, large enough to
    amortise task-dispatch overhead.
    """
    require(workers > 0, f"workers must be > 0, got {workers}")
    if total <= 0:
        return 1
    return max(1, -(-total // (workers * 4)))


def grouped_chunk_plan(
    group_keys: Sequence[Hashable], chunk_size: int
) -> list[list[int]]:
    """Index chunks that respect shared-artifact group boundaries.

    Scenarios are partitioned by their (hashable) group key; indices
    inside a group keep ascending (stream) order, each group is cut
    into chunks of at most ``chunk_size`` — so no chunk ever mixes two
    groups, and a worker evaluating one chunk touches exactly one
    context.  Groups do *not* have to be contiguous in the stream (a
    q-major Figure 5 grid interleaves its three functions); the engine
    scatters results back into scenario order.

    Chunks are ordered by their smallest contained index: when groups
    interleave, the chunks covering the front of the stream are
    submitted (and typically finished) first, so the engine's ordered
    flush holds its bounded window of chunks instead of buffering whole
    trailing groups — streaming stays bounded-memory even for fully
    interleaved grids.  Per-worker context builds are
    unaffected: the per-process memo serves every later chunk of an
    already-seen group.

    A pure function of ``(group_keys, chunk_size)``: the plan — and
    therefore the result stream — is identical for every worker count.

    Args:
        group_keys: One hashable key per scenario, in stream order.
        chunk_size: Maximum scenarios per chunk (> 0).

    Returns:
        Index chunks covering ``range(len(group_keys))`` exactly once.
    """
    require(chunk_size > 0, f"chunk_size must be > 0, got {chunk_size}")
    groups: dict[Hashable, list[int]] = {}
    for index, key in enumerate(group_keys):
        groups.setdefault(key, []).append(index)
    plan: list[list[int]] = []
    for indices in groups.values():
        for start in range(0, len(indices), chunk_size):
            plan.append(indices[start : start + chunk_size])
    plan.sort(key=lambda chunk: chunk[0])
    return plan


def derive_seed(base_seed: int, index: int) -> int:
    """Independent per-scenario seed via a SplitMix64 finalizer.

    The mapping is injective on ``index`` for a fixed ``base_seed`` and
    avalanches, so adjacent scenario indices get statistically unrelated
    streams (plain ``base_seed + index`` would correlate neighbouring
    Mersenne-Twister states).

    Args:
        base_seed: The sweep-level seed.
        index: Scenario index within the sweep (>= 0).

    Returns:
        A non-negative seed < 2**63.
    """
    require(index >= 0, f"index must be >= 0, got {index}")
    z = (base_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & ((1 << 63) - 1)
