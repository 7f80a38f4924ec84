"""Exact piecewise-affine functions with jump discontinuities.

This is the numeric backbone of the reproduction: the paper's
preemption-delay function ``f_i`` is an arbitrary non-negative function over
the progression axis ``[0, C_i]``, and Algorithm 1 needs two exact
primitives on it:

* the maximum (and leftmost argmax) over a closed interval, and
* the *first* point where ``f`` meets a descending unit-slope line
  ``D(x) = c - x`` (the paper's ``p∩``).

Both are computed exactly here (up to float rounding) — no sampling is
involved — so the reproduced bounds carry no discretisation error.

Discontinuities: adjacent segments may disagree at their shared abscissa.
Evaluation at such a point returns the *maximum* of the one-sided limits,
which is the safe convention for functions that are upper bounds (the
paper's ``f_i`` is an upper bound on the preemption cost).
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Sequence

from repro.piecewise.segments import Segment
from repro.utils.checks import require

_CONTIGUITY_TOLERANCE = 1e-9


class PiecewiseFunction:
    """A function defined by contiguous affine segments on a closed domain.

    Instances are immutable.  Construction validates that the segments are
    sorted, non-overlapping and contiguous (each segment starts where the
    previous one ends).

    Args:
        segments: Non-empty iterable of :class:`Segment`, ordered by ``x0``,
            with ``segments[k].x1 == segments[k + 1].x0``.
    """

    __slots__ = ("_segments", "_starts")

    def __init__(self, segments: Iterable[Segment]):
        segs = tuple(segments)
        require(len(segs) > 0, "a piecewise function needs at least one segment")
        for left, right in zip(segs, segs[1:]):
            if not abs(left.x1 - right.x0) <= _CONTIGUITY_TOLERANCE:
                raise ValueError(f"segments must be contiguous: {left!r} then {right!r}")
        self._segments = segs
        self._starts = [s.x0 for s in segs]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def segments(self) -> tuple[Segment, ...]:
        """The underlying segments, in increasing abscissa order."""
        return self._segments

    @property
    def domain(self) -> tuple[float, float]:
        """The closed interval ``[x_min, x_max]`` on which ``f`` is defined."""
        return self._segments[0].x0, self._segments[-1].x1

    @property
    def domain_start(self) -> float:
        """Left end of the domain."""
        return self._segments[0].x0

    @property
    def domain_end(self) -> float:
        """Right end of the domain."""
        return self._segments[-1].x1

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    def __repr__(self) -> str:
        lo, hi = self.domain
        return (
            f"PiecewiseFunction({len(self._segments)} segments on "
            f"[{lo:g}, {hi:g}], max={self.max_value():g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiecewiseFunction):
            return NotImplemented
        return self._segments == other._segments

    def __hash__(self) -> int:
        return hash(self._segments)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _segment_range(self, lo: float, hi: float) -> range:
        """Indices of segments intersecting ``[lo, hi]`` (non-degenerately
        or at a single shared point).

        The range starts one segment before the binary-search hit so that a
        segment whose right endpoint equals ``lo`` participates — its
        one-sided limit matters at jump discontinuities.
        """
        first = bisect.bisect_right(self._starts, lo) - 2
        first = max(first, 0)
        last = bisect.bisect_right(self._starts, hi) - 1
        last = max(last, first)
        return range(first, last + 1)

    def value(self, x: float) -> float:
        """Evaluate ``f(x)``.

        At an interior breakpoint where the function jumps, the maximum of
        the two one-sided limits is returned (safe for upper bounds).

        Raises:
            ValueError: if ``x`` lies outside the domain.
        """
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise ValueError(f"{x} outside domain [{lo}, {hi}]")
        best: float | None = None
        for idx in self._segment_range(x, x):
            seg = self._segments[idx]
            if seg.contains(x):
                v = seg.value_at(x)
                best = v if best is None else max(best, v)
        assert best is not None  # domain check above guarantees coverage
        return best

    def __call__(self, x: float) -> float:
        return self.value(x)

    # ------------------------------------------------------------------
    # Interval queries (the primitives Algorithm 1 relies on)
    # ------------------------------------------------------------------
    def max_on(self, lo: float, hi: float) -> tuple[float, float]:
        """Maximum of ``f`` on ``[lo, hi]`` with its leftmost argmax.

        Args:
            lo: Left end of the query interval (must be >= domain start).
            hi: Right end (must be <= domain end and >= ``lo``).

        Returns:
            ``(value, argmax)``; ``argmax`` is the smallest abscissa in
            ``[lo, hi]`` where the maximum is attained.
        """
        d_lo, d_hi = self.domain
        if not d_lo <= lo <= hi <= d_hi:
            raise ValueError(f"[{lo}, {hi}] outside domain [{d_lo}, {d_hi}]")
        best_v = -float("inf")
        best_x = lo
        for idx in self._segment_range(lo, hi):
            seg = self._segments[idx]
            if lo < seg.x0 and seg.x1 < hi:
                # A piece strictly inside [lo, hi]: the end values
                # Segment.max_on would compare, without clipping.
                if seg.y1 > seg.y0:
                    v, x = seg.y1, seg.x1
                else:
                    v, x = seg.y0, seg.x0
            else:
                s_lo = max(lo, seg.x0)
                s_hi = min(hi, seg.x1)
                if s_lo > s_hi:
                    continue
                v, x = seg.max_on(s_lo, s_hi)
            if v > best_v or (v == best_v and x < best_x):
                best_v, best_x = v, x
        return best_v, best_x

    def min_on(self, lo: float, hi: float) -> tuple[float, float]:
        """Minimum of ``f`` on ``[lo, hi]`` with its leftmost argmin.

        Note: at jump points the *lower* one-sided limit participates in the
        minimum, mirroring the evaluation convention used for maxima.
        """
        d_lo, d_hi = self.domain
        if not d_lo <= lo <= hi <= d_hi:
            raise ValueError(f"[{lo}, {hi}] outside domain [{d_lo}, {d_hi}]")
        best_v = float("inf")
        best_x = lo
        for idx in self._segment_range(lo, hi):
            seg = self._segments[idx]
            s_lo = max(lo, seg.x0)
            s_hi = min(hi, seg.x1)
            if s_lo > s_hi:
                continue
            v, x = seg.min_on(s_lo, s_hi)
            if v < best_v or (v == best_v and x < best_x):
                best_v, best_x = v, x
        return best_v, best_x

    def max_value(self) -> float:
        """Maximum of ``f`` over its whole domain."""
        return self.max_on(*self.domain)[0]

    def first_meeting_with_descending_line(
        self, lo: float, hi: float, c: float
    ) -> float | None:
        """Leftmost ``x`` in ``[lo, hi]`` with ``f(x) >= c - x``.

        This implements the paper's ``p∩`` (Algorithm 1, lines 7–9): the
        first point at which the delay function meets the descending line
        ``D(x) = c - x``.  For a continuous ``f`` starting below the line
        this is the first equality crossing; for step functions that jump
        across the line, the jump abscissa is returned (which is safe: a
        later ``p∩`` only enlarges the window over which the delay maximum
        is taken, so the resulting bound can only grow).

        Returns:
            The meeting abscissa, or ``None`` if ``f`` stays strictly below
            the line on all of ``[lo, hi]``.
        """
        d_lo, d_hi = self.domain
        if not d_lo <= lo <= hi <= d_hi:
            raise ValueError(f"[{lo}, {hi}] outside domain [{d_lo}, {d_hi}]")
        for idx in self._segment_range(lo, hi):
            seg = self._segments[idx]
            if (
                lo < seg.x0
                and seg.x1 < hi
                and seg.y0 - (c - seg.x0) < 0
                and seg.y1 - (c - seg.x1) < 0
            ):
                # A piece strictly inside [lo, hi] and below the line at
                # both ends, where Segment's test would return None.
                continue
            s_lo = max(lo, seg.x0)
            s_hi = min(hi, seg.x1)
            if s_lo > s_hi:
                continue
            meeting = seg.first_point_at_or_above_descending_line(s_lo, s_hi, c)
            if meeting is not None:
                return meeting
        return None

    def integral(self) -> float:
        """The exact integral of ``f`` over its domain (trapezoid per piece)."""
        return sum(0.5 * (s.y0 + s.y1) * s.width for s in self._segments)

    # ------------------------------------------------------------------
    # Transformations (all return new instances)
    # ------------------------------------------------------------------
    def shifted(self, dx: float = 0.0, dy: float = 0.0) -> "PiecewiseFunction":
        """Translate the graph by ``dx`` along x and ``dy`` along y."""
        return PiecewiseFunction(s.shifted(dx, dy) for s in self._segments)

    def scaled(self, factor: float) -> "PiecewiseFunction":
        """Multiply all ordinates by ``factor`` (must be >= 0 to preserve
        upper-bound semantics; negative factors are rejected)."""
        if not factor >= 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        return PiecewiseFunction(s.scaled(factor) for s in self._segments)

    def restricted(self, lo: float, hi: float) -> "PiecewiseFunction":
        """Restrict the domain to ``[lo, hi]`` (must be inside the domain)."""
        d_lo, d_hi = self.domain
        if not d_lo <= lo < hi <= d_hi:
            raise ValueError(f"[{lo}, {hi}] not inside [{d_lo}, {d_hi}]")
        pieces = []
        for idx in self._segment_range(lo, hi):
            seg = self._segments[idx]
            s_lo = max(lo, seg.x0)
            s_hi = min(hi, seg.x1)
            if s_lo < s_hi:
                pieces.append(seg.clipped(s_lo, s_hi))
        return PiecewiseFunction(pieces)

    def breakpoints(self) -> list[float]:
        """All abscissae at which a segment starts or ends (sorted, unique)."""
        points = [self._segments[0].x0]
        points.extend(s.x1 for s in self._segments)
        return points

    def sample(self, xs: Sequence[float]) -> list[float]:
        """Evaluate the function at each abscissa in ``xs``.

        Delegates to the batched kernel in
        :mod:`repro.piecewise.vectorized`, which is bit-identical to
        calling :meth:`value` per point but amortises the segment lookup
        across the whole batch.
        """
        from repro.piecewise.vectorized import evaluate_many

        return evaluate_many(self, xs)

    def is_non_negative(self) -> bool:
        """Whether ``f(x) >= 0`` everywhere on the domain."""
        return all(s.y0 >= 0 and s.y1 >= 0 for s in self._segments)
