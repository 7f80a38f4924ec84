"""Binary operations on piecewise functions.

The operations work by merging the breakpoint grids of both operands and
combining the affine pieces exactly on each merged cell.  Jump
discontinuities are preserved: a cell boundary where either operand jumps
becomes a boundary of the result.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections.abc import Callable
from itertools import repeat

from repro.piecewise.function import PiecewiseFunction, _value_on
from repro.piecewise.segments import Segment

_MERGE_TOLERANCE = 1e-12


def _merged_grid(f: PiecewiseFunction, g: PiecewiseFunction) -> list[float]:
    """Union of the breakpoint grids of ``f`` and ``g`` on their common domain."""
    if f.domain != g.domain:
        raise ValueError(f"domains differ: {f.domain} vs {g.domain}")
    points = sorted(set(f.breakpoints()) | set(g.breakpoints()))
    merged = [points[0]]
    for p in points[1:]:
        if p - merged[-1] > _MERGE_TOLERANCE:
            merged.append(p)
    # Guard against the last point collapsing onto its predecessor.
    if merged[-1] != points[-1]:
        merged[-1] = points[-1]
    return merged


def _segment_on_cell(fn: PiecewiseFunction, a: float, b: float) -> tuple[float, float]:
    """The values of ``fn`` at the ends of the cell ``[a, b]``.

    The cell is contained in one affine piece of ``fn`` by construction of
    the merged grid; the piece is found by binary search over its start
    abscissae.  An interpolated value that overflows raises the message
    of the cell's :class:`Segment`.
    """
    x0s, x1s, y0s, y1s = fn.coordinates
    mid = 0.5 * (a + b)
    idx = max(bisect.bisect_right(x0s, mid) - 1, 0)
    x0, x1, y0, y1 = x0s[idx], x1s[idx], y0s[idx], y1s[idx]
    if x0 <= mid <= x1:
        v0 = _value_on(x0, x1, y0, y1, max(a, x0))
        v1 = _value_on(x0, x1, y0, y1, min(b, x1))
        if not math.isfinite(v0 + v1):
            Segment(a, b, v0, v1)  # raises when v0 or v1 is not finite
        return v0, v1
    raise AssertionError(f"no segment of {fn!r} contains {mid}")  # pragma: no cover


def _check_pieces(x0s, x1s, y0s, y1s) -> None:
    """Raise the message of the first invalid piece, if any.

    Called before re-raising an error found while computing a later
    cell, so errors surface in piece order.
    """
    for piece in zip(x0s, x1s, y0s, y1s):
        Segment(*piece)


def combine(
    f: PiecewiseFunction,
    g: PiecewiseFunction,
    op: Callable[[float, float], float],
) -> PiecewiseFunction:
    """Pointwise combination ``op(f, g)`` on a merged grid.

    ``op`` is applied to segment endpoint values on each merged cell, which
    is exact for operations that map affine pieces to affine pieces
    (``+``, ``-``, constant blends).  For ``min``/``max`` use
    :func:`max_envelope` / :func:`min_envelope`, which split cells at
    interior crossings.
    """
    grid = _merged_grid(f, g)
    y0s: list[float] = []
    y1s: list[float] = []
    for a, b in zip(grid, grid[1:]):
        try:
            f0, f1 = _segment_on_cell(f, a, b)
            g0, g1 = _segment_on_cell(g, a, b)
        except ValueError:
            _check_pieces(grid, grid[1:], y0s, y1s)
            raise
        y0s.append(op(f0, g0))
        y1s.append(op(f1, g1))
    return PiecewiseFunction._from_coordinates(grid[:-1], grid[1:], y0s, y1s)


def add(f: PiecewiseFunction, g: PiecewiseFunction) -> PiecewiseFunction:
    """Exact pointwise sum ``f + g``."""
    return combine(f, g, lambda a, b: a + b)


def subtract(f: PiecewiseFunction, g: PiecewiseFunction) -> PiecewiseFunction:
    """Exact pointwise difference ``f - g``."""
    return combine(f, g, lambda a, b: a - b)


def _shared_grid_cells(
    f: PiecewiseFunction, g: PiecewiseFunction
) -> tuple[list[float], list[float], list[float], list[float], list[float]] | None:
    """``(grid, f0, f1, g0, g1)`` when ``f`` and ``g`` share one grid, else
    ``None``: the merged grid and what :func:`_segment_on_cell` returns
    on each of its cells, read from the coordinate tuples.

    The grid is shared when both functions have the same abscissa tuples,
    each piece starts exactly where the previous one ends and every piece
    is wider than the merge tolerance, so :func:`_merged_grid` keeps
    every breakpoint (``f``'s, as the set union keeps the first of equal
    keys).  Cell ``k`` is then piece ``k``, whose end values are stored,
    except where the midpoint ``0.5 * (a + b)`` of a one-ulp cell rounds
    onto ``b`` (a cell that survives the merge above 8192): the search
    then lands on piece ``k + 1``, which reads ``y0[k + 1]`` at both
    ends.  A domain whose doubled ends overflow keeps the per-cell search
    (the midpoint leaves the cell).  A function holding one ordinate
    tuple (a step function) gets one list for both of its columns.
    """
    x0s, x1s, fy0, fy1 = f.coordinates
    if not (
        x0s == g.coordinates[0]
        and x1s == g.coordinates[1]
        and x1s[:-1] == x0s[1:]
        and min(map(operator.sub, x1s, x0s)) > _MERGE_TOLERANCE
        and math.isfinite(2.0 * x0s[0])
        and math.isfinite(2.0 * x1s[-1])
    ):
        return None
    gy0, gy1 = g.coordinates[2:]
    grid = [x0s[0], *x1s]
    f0, g0 = list(fy0), list(gy0)
    f1 = f0 if fy1 is fy0 else list(fy1)
    g1 = g0 if gy1 is gy0 else list(gy1)
    ends = grid[1:]
    mids = map(operator.mul, repeat(0.5), map(operator.add, grid, ends))
    if any(map(operator.eq, mids, ends)):
        for k in range(len(x0s) - 1):
            if 0.5 * (grid[k] + grid[k + 1]) == grid[k + 1]:
                f0[k] = f1[k] = fy0[k + 1]
                g0[k] = g1[k] = gy0[k + 1]
    return grid, f0, f1, g0, g1


def _envelope(
    f: PiecewiseFunction, g: PiecewiseFunction, take_max: bool
) -> PiecewiseFunction:
    """Exact pointwise max (or min) envelope, splitting cells at crossings.

    On a grid both functions share (see :func:`_shared_grid_cells`) with
    no crossing inside any cell the envelope is picked column-wise at C
    speed.  Two step functions on one grid never cross, so for them the
    crossing test is skipped and one picked column serves both ends.
    """
    pick = max if take_max else min
    cells = _shared_grid_cells(f, g)
    if cells is not None:
        grid, f0s, f1s, g0s, g1s = cells
        if f1s is f0s and g1s is g0s:
            column = tuple(map(pick, f0s, g0s))
            return PiecewiseFunction._from_coordinates(
                grid[:-1], grid[1:], column, column
            )
        d0s = map(operator.sub, f0s, g0s)
        d1s = map(operator.sub, f1s, g1s)
        if not any(map(operator.lt, map(operator.mul, d0s, d1s), repeat(0.0))):
            return PiecewiseFunction._from_coordinates(
                grid[:-1], grid[1:], map(pick, f0s, g0s), map(pick, f1s, g1s)
            )
    grid = _merged_grid(f, g)
    x0s: list[float] = []
    x1s: list[float] = []
    y0s: list[float] = []
    y1s: list[float] = []
    for a, b in zip(grid, grid[1:]):
        try:
            f0, f1 = _segment_on_cell(f, a, b)
            g0, g1 = _segment_on_cell(g, a, b)
        except ValueError:
            _check_pieces(x0s, x1s, y0s, y1s)
            raise
        d0 = f0 - g0
        d1 = f1 - g1
        if d0 * d1 < 0:
            # The two affine pieces cross strictly inside the cell: split.
            t = d0 / (d0 - d1)
            x_cross = a + t * (b - a)
            if not a <= x_cross <= b:
                # Rounding put the crossing outside the cell, which
                # Segment.value_at reports after any earlier bad piece.
                _check_pieces(x0s, x1s, y0s, y1s)
                raise ValueError(f"{x_cross} outside segment [{a}, {b}]")
            y_a, y_b = (f0, f1) if abs(d0) < abs(d1) else (g0, g1)
            y_cross = _value_on(a, b, y_a, y_b, x_cross)
            if x_cross - a > _MERGE_TOLERANCE and b - x_cross > _MERGE_TOLERANCE:
                x0s += (a, x_cross)
                x1s += (x_cross, b)
                y0s += (pick(f0, g0), y_cross)
                y1s += (y_cross, pick(f1, g1))
                continue
        x0s.append(a)
        x1s.append(b)
        y0s.append(pick(f0, g0))
        y1s.append(pick(f1, g1))
    return PiecewiseFunction._from_coordinates(x0s, x1s, y0s, y1s)


def max_envelope(f: PiecewiseFunction, g: PiecewiseFunction) -> PiecewiseFunction:
    """Exact pointwise maximum ``max(f, g)``.

    Two functions on one grid (the Figure 4 two-bell function: two step
    functions of the same knots) take a column-wise path with no per-cell
    search; it returns what the per-cell loop returns, cell for cell.
    """
    return _envelope(f, g, take_max=True)


def min_envelope(f: PiecewiseFunction, g: PiecewiseFunction) -> PiecewiseFunction:
    """Exact pointwise minimum ``min(f, g)``."""
    return _envelope(f, g, take_max=False)
