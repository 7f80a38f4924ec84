"""Pluggable kernel backends for piecewise-function evaluation.

The hot path of every sweep, campaign and served job is piecewise
delay-bound evaluation.  This module makes the kernel implementing it a
*registered, named choice* instead of a hard-wired code path:

* :class:`KernelBackend` — one registry entry: a name, a declared
  exactness class, availability (optional backends register as
  unavailable rather than vanishing, so they stay listable), a
  point-evaluation kernel and an optional *batch bound kernel*;
* :func:`register_backend` / :func:`get_backend` /
  :func:`available_backends` — the registry surface.  ``scalar`` and
  ``vectorized`` (both stdlib-only) are always available; ``numpy``
  registers as available only when its module imports;
* :class:`BatchedGrid` — a struct-of-arrays layout of one function's
  segments (built once per shared-artifact context via
  :func:`batched_grid`, memoised) against which a whole lane-array of
  scenarios is evaluated as array operations rather than N Python
  calls.

Exactness contract: every kernel registered here declares
``exactness == EXACT_BIT_IDENTICAL`` and must reproduce the scalar
reference expressions *operation for operation* — same candidate
segment windows (``bisect_right`` semantics), same interpolation
arithmetic, same endpoint short-circuits, same tie handling.  A future
backend with documented tolerance would declare a different exactness
class, which the result store records alongside the backend name (see
:meth:`repro.store.ResultStore.set_backend_info`).

The batch bound kernel is the array form of Algorithm 1's window walk
(:mod:`repro.core.floating_npr` holds the scalar reference and its
constants, which callers pass in — this layer stays below ``core``).
All lanes advance in lockstep: one iteration performs the
``searchsorted`` range lookup, the descending-line crossing and the
interval maximum for *every* still-active scenario at once.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from importlib.util import find_spec
from typing import Any, Protocol

from repro.piecewise.function import PiecewiseFunction
from repro.piecewise.vectorized import SegmentIndex, segment_index
from repro.utils.caching import SwappableLRU
from repro.utils.checks import require

#: Exactness class of kernels that reproduce the scalar path bit for bit.
EXACT_BIT_IDENTICAL = "bit-identical"

#: The backend used when no ``--backend`` is selected (the stdlib-only
#: merge-walk kernel that predates the registry).
DEFAULT_BACKEND = "vectorized"

#: Number of distinct functions whose struct-of-arrays grids are retained
#: (``REPRO_CACHE_SIZE`` overrides it, see :mod:`repro.utils.caching`).
BATCHED_GRID_CACHE_SIZE = 256


class EvaluationBackend(Protocol):
    """What the engine requires of a registered kernel backend."""

    name: str
    exactness: str

    @property
    def supports_batch(self) -> bool: ...

    def evaluate_points(
        self, f: PiecewiseFunction, xs: Sequence[float]
    ) -> list[float]: ...


@dataclass(frozen=True, slots=True)
class KernelBackend:
    """One kernel-backend registry entry (satisfies
    :class:`EvaluationBackend`).

    Attributes:
        name: Registry key (``--backend`` value).
        description: One-line human description.
        exactness: Declared exactness class versus the scalar reference
            (:data:`EXACT_BIT_IDENTICAL`, or a documented tolerance for
            future approximate backends); recorded in store manifests.
        requires: Optional third-party module the backend needs, or
            ``None`` for stdlib-only backends.
        available: Whether the backend can run in this process (optional
            backends register with ``False`` when their module is
            missing, keeping them listable).
        batch_capable: Whether the backend *design* includes a batch
            bound kernel — an environment-independent declaration (the
            docs table uses it), true even when the backend is
            currently unavailable.
        evaluate_many: Point-evaluation kernel ``(f, xs) -> [f(x)…]``;
            ``None`` only when unavailable.
        bound_batch: Optional lockstep Algorithm 1 kernel
            ``(grid, qs, *, wcet, min_progress_fraction,
            max_iterations) -> (totals, converged, preemptions)``;
            ``None`` means scenario batches fall back to per-scenario
            evaluation under this backend.
    """

    name: str
    description: str
    exactness: str
    requires: str | None
    available: bool
    batch_capable: bool
    evaluate_many: Callable | None
    bound_batch: Callable | None

    @property
    def supports_batch(self) -> bool:
        """Whether whole scenario chunks evaluate as one array op."""
        return self.bound_batch is not None

    def evaluate_points(
        self, f: PiecewiseFunction, xs: Sequence[float]
    ) -> list[float]:
        """Evaluate ``f`` at ``xs`` through this backend's kernel."""
        require(
            self.available and self.evaluate_many is not None,
            f"backend {self.name!r} is not available in this process",
        )
        return self.evaluate_many(f, xs)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_BACKENDS: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend, replace: bool = False) -> None:
    """Add ``backend`` to the registry.

    Args:
        backend: The entry to register.
        replace: Allow overwriting an existing entry of the same name.

    Raises:
        ValueError: on duplicate names without ``replace=True``.
    """
    require(
        replace or backend.name not in _BACKENDS,
        f"backend {backend.name!r} is already registered",
    )
    _BACKENDS[backend.name] = backend


def get_backend(name: str) -> KernelBackend:
    """The registry entry for ``name`` (available or not).

    Raises:
        ValueError: for unknown names, listing what is registered.
    """
    require(
        name in _BACKENDS,
        f"unknown backend {name!r}; registered backends: "
        f"{', '.join(backend_names())}",
    )
    return _BACKENDS[name]


def resolve_backend(name: str) -> KernelBackend:
    """Like :func:`get_backend` but the entry must be runnable here.

    Raises:
        ValueError: for unknown names, or for registered-but-unavailable
            backends (e.g. ``numpy`` without the module installed),
            listing the currently available choices.
    """
    backend = get_backend(name)
    require(
        backend.available,
        f"backend {name!r} is not available"
        + (
            f" (requires the {backend.requires!r} module)"
            if backend.requires
            else ""
        )
        + f"; available backends: {', '.join(available_backends())}",
    )
    return backend


def backend_names() -> tuple[str, ...]:
    """All registered backend names, in registration order."""
    return tuple(_BACKENDS)


def available_backends() -> tuple[str, ...]:
    """Names of the backends runnable in this process, in registration
    order."""
    return tuple(b.name for b in _BACKENDS.values() if b.available)


def backend_supports_batch(name: str) -> bool:
    """Whether ``name`` resolves to a backend with a batch bound kernel."""
    return resolve_backend(name).supports_batch


# ----------------------------------------------------------------------
# struct-of-arrays batch layout
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BatchedGrid:
    """Struct-of-arrays view of one function's segments (NumPy arrays).

    Index-aligned float64 arrays mirroring :class:`SegmentIndex`:
    segment ``k`` runs from ``(x0[k], y0[k])`` to ``(x1[k], y1[k])``,
    and ``starts`` (== ``x0``) is the ``searchsorted`` key replicating
    the scalar path's ``bisect`` over segment start abscissae.  Built
    once per shared-artifact context group and reused by every lane of
    a batch.
    """

    starts: Any
    x0: Any
    x1: Any
    y0: Any
    y1: Any
    lo: float
    hi: float

    def __len__(self) -> int:
        return int(self.starts.shape[0])


def _build_batched_grid(index: SegmentIndex) -> BatchedGrid:
    """Materialise the NumPy struct-of-arrays grid for ``index``.

    Requires the ``numpy`` backend to be available; memoised through
    :data:`batched_grid` so each distinct function pays the conversion
    once per process.
    """
    import numpy as np

    return BatchedGrid(
        starts=np.asarray(index.starts, dtype=np.float64),
        x0=np.asarray(index.x0, dtype=np.float64),
        x1=np.asarray(index.x1, dtype=np.float64),
        y0=np.asarray(index.y0, dtype=np.float64),
        y1=np.asarray(index.y1, dtype=np.float64),
        lo=index.lo,
        hi=index.hi,
    )


batched_grid = SwappableLRU(_build_batched_grid, BATCHED_GRID_CACHE_SIZE)


def batched_grid_for(f: PiecewiseFunction) -> BatchedGrid:
    """The (memoised) :class:`BatchedGrid` of ``f``."""
    return batched_grid(segment_index(f))


def clear_batched_grid_cache() -> None:
    """Drop all memoised grids (mainly for tests/long sweeps)."""
    batched_grid.cache_clear()


# ----------------------------------------------------------------------
# NumPy kernels
#
# Every expression below replicates the scalar reference in
# repro/piecewise/segments.py & function.py operation for operation —
# no algebraic rewrites — which is what makes the backend's
# EXACT_BIT_IDENTICAL declaration true by construction (and asserted on
# randomized functions in tests/piecewise/test_backends.py).
# ----------------------------------------------------------------------


def _segment_window(np, starts, lo, hi):
    """Per-lane candidate segment columns for ``[lo, hi]`` queries.

    Mirrors ``PiecewiseFunction._segment_range``: the window starts one
    segment before the ``bisect_right`` hit (so a segment whose right
    endpoint equals ``lo`` contributes its one-sided limit) and ends at
    the last segment starting at or before ``hi``.

    Returns:
        ``(cols, valid)`` — integer column indices of shape
        ``(lanes, width)`` clamped into range, and the mask of columns
        actually inside each lane's window.
    """
    first = np.searchsorted(starts, lo, side="right") - 2
    np.maximum(first, 0, out=first)
    last = np.searchsorted(starts, hi, side="right") - 1
    np.maximum(last, first, out=last)
    width = int((last - first).max()) + 1
    cols = first[:, None] + np.arange(width)[None, :]
    valid = cols <= last[:, None]
    np.minimum(cols, starts.shape[0] - 1, out=cols)
    return cols, valid


def _value_at(np, x0, x1, y0, y1, x):
    """``Segment.value_at`` over arrays: endpoint short-circuits, then
    the exact interpolation expression."""
    ratio = (x - x0) / (x1 - x0)
    interp = y0 + ratio * (y1 - y0)
    return np.where(x == x0, y0, np.where(x == x1, y1, interp))


def _first_meeting_lanes(np, grid: BatchedGrid, lo, hi, c):
    """Per-lane ``first_meeting_with_descending_line(lo, hi, c)``.

    Returns the meeting abscissa per lane, or NaN where ``f`` stays
    strictly below the line (the scalar path's ``None``).
    """
    cols, valid = _segment_window(np, grid.starts, lo, hi)
    x0, x1 = grid.x0[cols], grid.x1[cols]
    y0, y1 = grid.y0[cols], grid.y1[cols]
    s_lo = np.maximum(lo[:, None], x0)
    s_hi = np.minimum(hi[:, None], x1)
    valid &= s_lo <= s_hi
    g_lo = _value_at(np, x0, x1, y0, y1, s_lo) - (c[:, None] - s_lo)
    g_hi = _value_at(np, x0, x1, y0, y1, s_hi) - (c[:, None] - s_hi)
    at_lo = g_lo >= 0.0
    denom = g_hi - g_lo
    crosses = ~at_lo & (g_hi >= 0.0) & (denom != 0.0)
    safe = np.where(denom == 0.0, 1.0, denom)
    root = s_lo + (s_hi - s_lo) * (0.0 - g_lo) / safe
    root = np.minimum(np.maximum(root, s_lo), s_hi)
    meeting = np.where(at_lo, s_lo, root)
    has = valid & (at_lo | crosses)
    rows = np.arange(lo.shape[0])
    col = np.argmax(has, axis=1)  # first True = leftmost segment
    return np.where(has[rows, col], meeting[rows, col], np.nan)


def _max_on_lanes(np, grid: BatchedGrid, lo, hi):
    """Per-lane ``max_on(lo, hi)`` values (argmax positions are not
    needed by the batch bound — only the charged delay is)."""
    cols, valid = _segment_window(np, grid.starts, lo, hi)
    x0, x1 = grid.x0[cols], grid.x1[cols]
    y0, y1 = grid.y0[cols], grid.y1[cols]
    s_lo = np.maximum(lo[:, None], x0)
    s_hi = np.minimum(hi[:, None], x1)
    valid &= s_lo <= s_hi
    v_lo = _value_at(np, x0, x1, y0, y1, s_lo)
    v_hi = _value_at(np, x0, x1, y0, y1, s_hi)
    v = np.where(v_hi > v_lo, v_hi, v_lo)
    return np.where(valid, v, -np.inf).max(axis=1)


def _bound_batch_numpy(
    grid: BatchedGrid,
    qs: Sequence[float],
    *,
    wcet: float,
    min_progress_fraction: float,
    max_iterations: int,
) -> tuple[list[float], list[bool], list[int]]:
    """Lockstep Algorithm 1 over a lane-array of NPR lengths.

    One lane per scenario, all sharing ``grid``.  Each lockstep
    iteration advances every still-active lane by one analysis window
    using array operations; lanes retire on completion or divergence
    and are compacted out.  Per lane, the window sequence — and hence
    the summation order of the charged delays — is exactly the scalar
    loop's, so totals are bit-identical.

    Returns:
        ``(total_delay, converged, preemptions)`` lists aligned with
        ``qs`` (totals are ``inf`` on divergence, mirroring
        :func:`repro.core.floating_npr.floating_npr_delay_bound`).
    """
    import numpy as np

    q_all = np.asarray(qs, dtype=np.float64)
    lanes = q_all.shape[0]
    total = np.zeros(lanes, dtype=np.float64)
    converged = np.ones(lanes, dtype=bool)
    preemptions = np.zeros(lanes, dtype=np.int64)
    p_next = q_all.copy()  # no preemption during the first Q units
    live = np.flatnonzero(p_next < wcet)
    iteration = 0
    while live.size:
        iteration += 1
        if iteration > max_iterations:
            q_stuck = q_all[live[0]]
            raise ValueError(
                f"Algorithm 1 exceeded {max_iterations} iterations "
                f"(C={wcet}, Q={q_stuck}); the bound is close to divergence"
            )
        q = q_all[live]
        prog = p_next[live]
        c = prog + q
        window_end = np.minimum(c, wcet)
        p_cross = _first_meeting_lanes(np, grid, prog, window_end, c)
        p_cross = np.where(np.isnan(p_cross), window_end, p_cross)
        delay = _max_on_lanes(np, grid, prog, p_cross)
        diverging = delay >= q - q * min_progress_fraction
        stalled = live[diverging]
        total[stalled] = np.inf
        converged[stalled] = False
        advancing = ~diverging
        idx = live[advancing]
        step = delay[advancing]
        p_new = c[advancing] - step  # (prog + q) - delay, as in the scalar
        total[idx] += step
        preemptions[idx] += 1
        p_next[idx] = p_new
        live = idx[p_new < wcet]
    return total.tolist(), converged.tolist(), preemptions.tolist()


def _evaluate_many_numpy(
    f: PiecewiseFunction, xs: Sequence[float]
) -> list[float]:
    """NumPy point evaluation: same candidate windows and arithmetic as
    ``PiecewiseFunction.value`` (max of one-sided limits at jumps)."""
    import numpy as np

    grid = batched_grid_for(f)
    x = np.asarray(xs, dtype=np.float64)
    if x.size == 0:
        return []
    inside = (grid.lo <= x) & (x <= grid.hi)
    if not inside.all():
        bad = x[np.argmin(inside)]
        raise ValueError(f"{bad} outside domain [{grid.lo}, {grid.hi}]")
    cols, valid = _segment_window(np, grid.starts, x, x)
    x0, x1 = grid.x0[cols], grid.x1[cols]
    y0, y1 = grid.y0[cols], grid.y1[cols]
    xb = x[:, None]
    contains = valid & (x0 <= xb) & (xb <= x1)
    v = _value_at(np, x0, x1, y0, y1, xb)
    return np.where(contains, v, -np.inf).max(axis=1).tolist()


# ----------------------------------------------------------------------
# built-in entries
# ----------------------------------------------------------------------


def _evaluate_many_scalar(
    f: PiecewiseFunction, xs: Sequence[float]
) -> list[float]:
    """The reference kernel: one ``PiecewiseFunction.value`` per point."""
    return [f.value(x) for x in xs]


def _register_builtins() -> None:
    from repro.piecewise.vectorized import evaluate_many

    register_backend(
        KernelBackend(
            name="scalar",
            description="per-point reference path (one Python call per "
            "query); the semantics every other backend must match",
            exactness=EXACT_BIT_IDENTICAL,
            requires=None,
            available=True,
            batch_capable=False,
            evaluate_many=_evaluate_many_scalar,
            bound_batch=None,
        )
    )
    register_backend(
        KernelBackend(
            name="vectorized",
            description="stdlib-only merge-walk over the function's "
            "coordinate tuples (the default)",
            exactness=EXACT_BIT_IDENTICAL,
            requires=None,
            available=True,
            batch_capable=False,
            evaluate_many=evaluate_many,
            bound_batch=None,
        )
    )
    numpy_available = find_spec("numpy") is not None
    register_backend(
        KernelBackend(
            name="numpy",
            description="struct-of-arrays lockstep kernel: whole grouped "
            "chunks evaluate as array operations",
            exactness=EXACT_BIT_IDENTICAL,
            requires="numpy",
            available=numpy_available,
            batch_capable=True,
            evaluate_many=_evaluate_many_numpy if numpy_available else None,
            bound_batch=_bound_batch_numpy if numpy_available else None,
        )
    )


_register_builtins()
