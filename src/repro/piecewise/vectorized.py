"""Batch (vectorized) evaluation of piecewise functions — NumPy-free.

Scalar :meth:`~repro.piecewise.PiecewiseFunction.value` pays a Python
attribute lookup, a ``bisect`` call and a method dispatch per query.  For
sweeps that sample one function at thousands of abscissae (Figure 4
curves, delay-profile plots, the batch engine's scenario kernels) that
overhead dominates.  This module provides the array-of-breakpoints fast
path:

* :func:`segment_index` — an O(1) view of the function's own
  coordinate tuples (a :class:`PiecewiseFunction` stores its pieces that
  way, so there is nothing to flatten or memoise);
* :func:`evaluate_sorted` — evaluate at a non-decreasing sequence of
  query points with a single merge walk over the breakpoint array
  (``O(n + m)`` instead of ``m`` independent binary searches);
* :func:`evaluate_many` — the general entry point: argsorts arbitrary
  query points, merge-walks, and scatters the results back.

All paths reproduce the scalar evaluation *bit-identically*, including
the max-of-one-sided-limits convention at jump discontinuities — the
engine's equivalence guarantees depend on this, and
``tests/piecewise/test_vectorized.py`` locks it in on randomized
functions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.piecewise.function import PiecewiseFunction


@dataclass(frozen=True, slots=True)
class SegmentIndex:
    """Parallel-array view of a piecewise function's segments.

    The tuples are index-aligned: segment ``k`` is the affine piece from
    ``(x0[k], y0[k])`` to ``(x1[k], y1[k])``.  ``starts`` equals ``x0``
    and is kept as the merge-walk key to mirror the scalar path's
    ``bisect`` over segment start abscissae.

    Attributes:
        starts: Segment start abscissae (sorted; the search key).
        x0: Left abscissa per segment.
        x1: Right abscissa per segment.
        y0: Ordinate at ``x0`` per segment.
        y1: Ordinate at ``x1`` per segment.
        lo: Left end of the function's domain.
        hi: Right end of the function's domain.
    """

    starts: tuple[float, ...]
    x0: tuple[float, ...]
    x1: tuple[float, ...]
    y0: tuple[float, ...]
    y1: tuple[float, ...]
    lo: float
    hi: float

    def __len__(self) -> int:
        return len(self.starts)


def segment_index(f: PiecewiseFunction) -> SegmentIndex:
    """The :class:`SegmentIndex` of ``f``: a view sharing ``f``'s own
    coordinate tuples, built in O(1)."""
    x0, x1, y0, y1 = f.coordinates
    return SegmentIndex(x0, x0, x1, y0, y1, x0[0], x1[-1])


def evaluate_sorted(
    f: PiecewiseFunction, xs: Sequence[float]
) -> list[float]:
    """Evaluate ``f`` at a *non-decreasing* sequence of abscissae.

    A single pointer advances through the breakpoint array as the queries
    advance, so the whole batch costs one pass over segments plus one
    pass over queries.  Sortedness is the caller's contract (uniform
    sample grids, CDF abscissae); it is verified cheaply as the walk
    proceeds.

    Args:
        f: The function to evaluate.
        xs: Query abscissae, non-decreasing, all inside ``f``'s domain.

    Returns:
        ``[f(x) for x in xs]``, bit-identical to the scalar path.

    Raises:
        ValueError: if a query leaves the domain or ``xs`` decreases.
    """
    index = segment_index(f)
    starts = index.starts
    x0s, x1s, y0s, y1s = index.x0, index.x1, index.y0, index.y1
    n = len(starts)
    lo, hi = index.lo, index.hi
    out: list[float] = []
    append = out.append
    cursor = 0
    previous = lo
    # Hot loop: checks and interpolation are inlined (no helper calls, no
    # eager message formatting) — this is the whole point of the kernel.
    for x in xs:
        if x < previous:
            raise ValueError(
                f"query points must be non-decreasing, got {x} after {previous}"
            )
        if not (lo <= x <= hi):  # negated form so NaN is rejected too
            raise ValueError(f"{x} outside domain [{lo}, {hi}]")
        while cursor < n and starts[cursor] <= x:
            cursor += 1
        first = cursor - 2
        if first < 0:
            first = 0
        last = cursor - 1
        if last < first:
            last = first
        best: float | None = None
        for k in range(first, last + 1):
            if x0s[k] <= x <= x1s[k]:
                if x == x0s[k]:
                    v = y0s[k]
                elif x == x1s[k]:
                    v = y1s[k]
                else:
                    ratio = (x - x0s[k]) / (x1s[k] - x0s[k])
                    v = y0s[k] + ratio * (y1s[k] - y0s[k])
                best = v if best is None else max(best, v)
        assert best is not None  # domain check above guarantees coverage
        append(best)
        previous = x
    return out


def evaluate_many(
    f: PiecewiseFunction, xs: Sequence[float]
) -> list[float]:
    """Evaluate ``f`` at arbitrary abscissae in one batched pass.

    Queries are argsorted, merge-walked with :func:`evaluate_sorted`'s
    pointer scheme, and scattered back to input order, so callers get the
    exact per-point results of :meth:`PiecewiseFunction.value` at a
    fraction of the per-call overhead.

    Args:
        f: The function to evaluate.
        xs: Query abscissae in any order, all inside ``f``'s domain.

    Returns:
        ``[f(x) for x in xs]`` in the order of ``xs``.

    Raises:
        ValueError: if any query lies outside the domain.
    """
    index = segment_index(f)
    starts = index.starts
    n = len(starts)
    lo, hi = index.lo, index.hi
    order = sorted(range(len(xs)), key=xs.__getitem__)
    out: list[float] = [0.0] * len(xs)
    cursor = 0
    for i in order:
        x = xs[i]
        if not (lo <= x <= hi):  # negated form so NaN is rejected too
            raise ValueError(f"{x} outside domain [{lo}, {hi}]")
        while cursor < n and starts[cursor] <= x:
            cursor += 1
        out[i] = f._value_at_cursor(cursor, x)
    return out

