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
import math
import operator
from collections.abc import Iterable, Iterator
from itertools import chain

from repro.piecewise.segments import Segment
from repro.utils.checks import require

_CONTIGUITY_TOLERANCE = 1e-9


def _all_finite(values: tuple[float, ...]) -> bool:
    """Whether every element of ``values`` is finite, in one C-level pass.

    An infinity or a NaN keeps any sum it enters non-finite, so a finite
    sum proves every term finite.  A sum that overflows, or terms a float
    cannot be added to (an int too large for a float, a ``Decimal``),
    read as ``False``; callers then check piece by piece.
    """
    try:
        return math.isfinite(sum(values, 0.0))
    except (OverflowError, TypeError):
        return False


def _contiguous(x0: tuple[float, ...], x1: tuple[float, ...]) -> bool:
    """Whether each piece starts where the previous one ends, within
    the contiguity tolerance."""
    if x1[:-1] == x0[1:]:
        return True
    return all(
        abs(end - start) <= _CONTIGUITY_TOLERANCE for end, start in zip(x1, x0[1:])
    )


def _value_on(x0: float, x1: float, y0: float, y1: float, x: float) -> float:
    """The affine piece through ``(x0, y0)`` and ``(x1, y1)`` at ``x``.

    The arithmetic of :meth:`Segment.value_at` for an ``x`` known to lie
    in ``[x0, x1]``: the endpoint ordinates exactly, else the same
    interpolation expression.
    """
    if x == x0:
        return y0
    if x == x1:
        return y1
    ratio = (x - x0) / (x1 - x0)
    return y0 + ratio * (y1 - y0)


def _shared_column(y0: tuple[float, ...], y1: tuple[float, ...]) -> tuple[float, ...]:
    """``y0`` itself when every ``y1[k] is y0[k]``, else ``y1``.

    A step function thus holds one ordinate tuple (``y0 is y1``), which
    Algorithm 1 reads as the sign that every piece is flat.  Equal but
    distinct objects (``0.0`` and ``-0.0``, ``1`` and ``1.0``) keep two
    tuples: the pieces' end values may differ in sign or type.
    """
    if y1 is not y0 and all(map(operator.is_, y0, y1)):
        return y0
    return y1


class PiecewiseFunction:
    """A function defined by contiguous affine segments on a closed domain.

    Instances are immutable.  Construction validates that the segments are
    sorted, non-overlapping and contiguous (each segment starts where the
    previous one ends).  The pieces are stored as four index-aligned
    coordinate tuples (see :attr:`coordinates`); :class:`Segment` objects
    are built only when :attr:`segments` is read.  When each piece's two
    ordinates are one object, both columns are one tuple.

    Args:
        segments: Non-empty iterable of :class:`Segment`, ordered by ``x0``,
            with ``segments[k].x1 == segments[k + 1].x0``.
    """

    __slots__ = ("_x0", "_x1", "_y0", "_y1")

    def __init__(self, segments: Iterable[Segment]):
        segs = tuple(segments)
        require(len(segs) > 0, "a piecewise function needs at least one segment")
        for left, right in zip(segs, segs[1:]):
            if not abs(left.x1 - right.x0) <= _CONTIGUITY_TOLERANCE:
                raise ValueError(f"segments must be contiguous: {left!r} then {right!r}")
        self._x0 = tuple(s.x0 for s in segs)
        self._x1 = tuple(s.x1 for s in segs)
        self._y0 = tuple(s.y0 for s in segs)
        self._y1 = _shared_column(self._y0, tuple(s.y1 for s in segs))

    @classmethod
    def _from_coordinates(
        cls,
        x0: Iterable[float],
        x1: Iterable[float],
        y0: Iterable[float],
        y1: Iterable[float],
    ) -> PiecewiseFunction:
        """The function whose piece ``k`` runs from ``(x0[k], y0[k])`` to
        ``(x1[k], y1[k])``.

        Accepts exactly what ``PiecewiseFunction([Segment(...), ...])``
        accepts, checking whole tuples at C speed: finiteness, positive
        widths, then contiguity.  When any check fails the pieces are
        rebuilt through :class:`Segment` in order, so the first failing
        check raises its usual message.
        """
        x0, x1, y0 = tuple(x0), tuple(x1), tuple(y0)
        y1 = _shared_column(y0, tuple(y1))
        if not (
            x0
            and _all_finite(x0)
            and _all_finite(x1)
            and _all_finite(y0)
            and (y1 is y0 or _all_finite(y1))
            and all(map(operator.lt, x0, x1))
            and _contiguous(x0, x1)
        ):
            return cls(map(Segment, x0, x1, y0, y1))
        self = object.__new__(cls)
        self._x0, self._x1, self._y0, self._y1 = x0, x1, y0, y1
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def segments(self) -> tuple[Segment, ...]:
        """The pieces as :class:`Segment` objects, in increasing abscissa
        order (built on every read)."""
        return tuple(map(Segment, self._x0, self._x1, self._y0, self._y1))

    @property
    def coordinates(
        self,
    ) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """``(x0, x1, y0, y1)``: index-aligned tuples, piece ``k`` running
        from ``(x0[k], y0[k])`` to ``(x1[k], y1[k])``."""
        return self._x0, self._x1, self._y0, self._y1

    @property
    def domain(self) -> tuple[float, float]:
        """The closed interval ``[x_min, x_max]`` on which ``f`` is defined."""
        return self._x0[0], self._x1[-1]

    @property
    def domain_start(self) -> float:
        """Left end of the domain."""
        return self._x0[0]

    @property
    def domain_end(self) -> float:
        """Right end of the domain."""
        return self._x1[-1]

    def __len__(self) -> int:
        return len(self._x0)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __repr__(self) -> str:
        lo, hi = self.domain
        return (
            f"PiecewiseFunction({len(self)} segments on "
            f"[{lo:g}, {hi:g}], max={self.max_value():g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiecewiseFunction):
            return NotImplemented
        return self.coordinates == other.coordinates

    def __hash__(self) -> int:
        return hash(self.coordinates)

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
        first = bisect.bisect_right(self._x0, lo) - 2
        first = max(first, 0)
        last = bisect.bisect_right(self._x0, hi) - 1
        last = max(last, first)
        return range(first, last + 1)

    def value(self, x: float) -> float:
        """Evaluate ``f(x)``.

        At an interior breakpoint where the function jumps, the maximum of
        the two one-sided limits is returned (safe for upper bounds).

        Raises:
            ValueError: if ``x`` lies outside the domain.
        """
        lo, hi = self._x0[0], self._x1[-1]
        if not lo <= x <= hi:
            raise ValueError(f"{x} outside domain [{lo}, {hi}]")
        cursor = bisect.bisect_right(self._x0, x)
        x0s, x1s, y0s, y1s = self._x0, self._x1, self._y0, self._y1
        first = max(cursor - 2, 0)
        best: float | None = None
        for k in range(first, max(cursor - 1, first) + 1):
            if x0s[k] <= x <= x1s[k]:
                v = _value_on(x0s[k], x1s[k], y0s[k], y1s[k], x)
                best = v if best is None else max(best, v)
        assert best is not None  # the domain check guarantees coverage
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
        x0s, x1s, y0s, y1s = self._x0, self._x1, self._y0, self._y1
        d_lo, d_hi = x0s[0], x1s[-1]
        if not d_lo <= lo <= hi <= d_hi:
            raise ValueError(f"[{lo}, {hi}] outside domain [{d_lo}, {d_hi}]")
        best_v = -float("inf")
        best_x = lo
        for k in self._segment_range(lo, hi):
            a, b, ya, yb = x0s[k], x1s[k], y0s[k], y1s[k]
            if lo < a and b < hi:
                # A piece strictly inside [lo, hi]: its larger end value.
                if yb > ya:
                    v, x = yb, b
                else:
                    v, x = ya, a
            else:
                # Clip as max(lo, a) and min(hi, b) do, so ties between
                # zeros of opposite sign keep the same operand.
                s_lo = a if a > lo else lo
                s_hi = b if b < hi else hi
                if s_lo > s_hi:
                    continue
                v_lo = _value_on(a, b, ya, yb, s_lo)
                v_hi = _value_on(a, b, ya, yb, s_hi)
                if v_hi > v_lo:
                    v, x = v_hi, s_hi
                else:
                    v, x = v_lo, s_lo
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
        segments = self.segments
        for idx in self._segment_range(lo, hi):
            seg = segments[idx]
            s_lo = max(lo, seg.x0)
            s_hi = min(hi, seg.x1)
            if s_lo > s_hi:
                continue
            v, x = seg.min_on(s_lo, s_hi)
            if v < best_v or (v == best_v and x < best_x):
                best_v, best_x = v, x
        return best_v, best_x

    def max_value(self) -> float:
        """Maximum of ``f`` over its whole domain: ``max_on(*domain)[0]``.

        When each piece starts exactly where the previous one ends
        (``x1[:-1] == x0[1:]``), ``max_on`` visits every piece once, in
        order, reading ``y0[k]`` then ``y1[k]`` and keeping the first of
        equal values (no argmax tie can favour a later piece), so the
        result is the built-in ``max`` over ``y0[0], y1[0], y0[1], …``,
        read at C speed: a signed zero or an ``int`` tied with a
        ``float`` comes out as the walk returns it.  Equal columns (a
        step function) first reach their maximum at the same ``k``, where
        ``y0[k]`` comes first, so ``max(y0)`` alone is that value.  A
        function whose pieces meet only within the contiguity tolerance
        takes the walk: a piece may reach back before its predecessor's
        end, and ``max_on`` skips one whose start repeats.
        """
        x0s, x1s, y0s, y1s = self._x0, self._x1, self._y0, self._y1
        if x1s[:-1] == x0s[1:]:
            if y0s == y1s:
                return max(y0s)
            return max(chain.from_iterable(zip(y0s, y1s)))
        return self.max_on(x0s[0], x1s[-1])[0]

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
        x0s, x1s, y0s, y1s = self._x0, self._x1, self._y0, self._y1
        d_lo, d_hi = x0s[0], x1s[-1]
        if not d_lo <= lo <= hi <= d_hi:
            raise ValueError(f"[{lo}, {hi}] outside domain [{d_lo}, {d_hi}]")
        for k in self._segment_range(lo, hi):
            a, b, ya, yb = x0s[k], x1s[k], y0s[k], y1s[k]
            if lo < a and b < hi and ya - (c - a) < 0 and yb - (c - b) < 0:
                # A piece strictly inside [lo, hi] and below the line at
                # both ends: no meeting point on it.
                continue
            s_lo = a if a > lo else lo
            s_hi = b if b < hi else hi
            if s_lo > s_hi:
                continue
            # Segment.first_point_at_or_above_descending_line: g(x) =
            # y(x) - (c - x) is affine; a meeting point is any x with
            # g(x) >= 0, else the root of g crossing from below.
            g_lo = _value_on(a, b, ya, yb, s_lo) - (c - s_lo)
            if g_lo >= 0:
                return s_lo
            g_hi = _value_on(a, b, ya, yb, s_hi) - (c - s_hi)
            if g_hi < 0 or g_hi == g_lo:
                continue
            root = s_lo + (s_hi - s_lo) * (0.0 - g_lo) / (g_hi - g_lo)
            return min(max(root, s_lo), s_hi)
        return None

    def integral(self) -> float:
        """The exact integral of ``f`` over its domain (trapezoid per piece)."""
        return sum(0.5 * (s.y0 + s.y1) * s.width for s in self.segments)

    # ------------------------------------------------------------------
    # Transformations (all return new instances)
    # ------------------------------------------------------------------
    def shifted(self, dx: float = 0.0, dy: float = 0.0) -> "PiecewiseFunction":
        """Translate the graph by ``dx`` along x and ``dy`` along y."""
        return PiecewiseFunction(s.shifted(dx, dy) for s in self.segments)

    def scaled(self, factor: float) -> "PiecewiseFunction":
        """Multiply all ordinates by ``factor`` (must be >= 0 to preserve
        upper-bound semantics; negative factors are rejected)."""
        if not factor >= 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        return PiecewiseFunction(s.scaled(factor) for s in self.segments)

    def restricted(self, lo: float, hi: float) -> "PiecewiseFunction":
        """Restrict the domain to ``[lo, hi]`` (must be inside the domain)."""
        d_lo, d_hi = self.domain
        if not d_lo <= lo < hi <= d_hi:
            raise ValueError(f"[{lo}, {hi}] not inside [{d_lo}, {d_hi}]")
        pieces = []
        segments = self.segments
        for idx in self._segment_range(lo, hi):
            seg = segments[idx]
            s_lo = max(lo, seg.x0)
            s_hi = min(hi, seg.x1)
            if s_lo < s_hi:
                pieces.append(seg.clipped(s_lo, s_hi))
        return PiecewiseFunction(pieces)

    def breakpoints(self) -> list[float]:
        """All abscissae at which a segment starts or ends (sorted, unique)."""
        return [self._x0[0], *self._x1]

    def is_non_negative(self) -> bool:
        """Whether ``f(x) >= 0`` everywhere on the domain."""
        y0s, y1s = self._y0, self._y1
        return min(y0s) >= 0 and (y1s is y0s or min(y1s) >= 0)
