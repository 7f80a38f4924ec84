"""Linear segment primitive used by :class:`repro.piecewise.PiecewiseFunction`.

A :class:`Segment` is the graph of an affine function restricted to a closed
interval ``[x0, x1]``.  Piecewise functions are ordered lists of contiguous
segments; adjacent segments may disagree at their shared abscissa, which is
how step (piecewise-constant) functions and general discontinuities are
represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Segment:
    """An affine piece ``y(x) = y0 + slope * (x - x0)`` on ``[x0, x1]``.

    Attributes:
        x0: Left abscissa (inclusive).
        x1: Right abscissa (inclusive), strictly greater than ``x0``.
        y0: Value at ``x0``.
        y1: Value at ``x1``.
    """

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self) -> None:
        # The checks in this class use ``if not …: raise`` instead of
        # ``require``, which would format ``self`` on every call: every
        # segment the analysis builds or evaluates runs them.
        if not (
            math.isfinite(self.x0)
            and math.isfinite(self.x1)
            and math.isfinite(self.y0)
            and math.isfinite(self.y1)
        ):
            raise ValueError(f"segment coordinates must be finite, got {self!r}")
        if not self.x1 > self.x0:
            raise ValueError(f"segment must have positive width, got {self!r}")

    @property
    def slope(self) -> float:
        """Slope of the affine piece."""
        return (self.y1 - self.y0) / (self.x1 - self.x0)

    @property
    def width(self) -> float:
        """Length of the segment's abscissa interval."""
        return self.x1 - self.x0

    def contains(self, x: float) -> bool:
        """Whether ``x`` lies inside the closed interval ``[x0, x1]``."""
        return self.x0 <= x <= self.x1

    def value_at(self, x: float) -> float:
        """Evaluate the affine piece at ``x`` (``x`` must lie in the segment)."""
        if not self.x0 <= x <= self.x1:
            raise ValueError(f"{x} outside segment [{self.x0}, {self.x1}]")
        if x == self.x0:
            return self.y0
        if x == self.x1:
            return self.y1
        ratio = (x - self.x0) / (self.x1 - self.x0)
        return self.y0 + ratio * (self.y1 - self.y0)

    def max_on(self, lo: float, hi: float) -> tuple[float, float]:
        """Maximum of the piece on ``[lo, hi] ∩ [x0, x1]``.

        Returns:
            ``(value, argmax)`` where ``argmax`` is the *leftmost* abscissa at
            which the maximum is attained.  Because the piece is affine, the
            maximum sits at one of the clipped endpoints.
        """
        lo = max(lo, self.x0)
        hi = min(hi, self.x1)
        if not lo <= hi:
            raise ValueError(f"empty intersection of [{lo}, {hi}] with {self!r}")
        v_lo = self.value_at(lo)
        v_hi = self.value_at(hi)
        if v_hi > v_lo:
            return v_hi, hi
        return v_lo, lo

    def min_on(self, lo: float, hi: float) -> tuple[float, float]:
        """Minimum of the piece on ``[lo, hi] ∩ [x0, x1]`` (value, leftmost arg)."""
        lo = max(lo, self.x0)
        hi = min(hi, self.x1)
        if not lo <= hi:
            raise ValueError(f"empty intersection of [{lo}, {hi}] with {self!r}")
        v_lo = self.value_at(lo)
        v_hi = self.value_at(hi)
        if v_hi < v_lo:
            return v_hi, hi
        return v_lo, lo

    def first_point_at_or_above_descending_line(
        self, lo: float, hi: float, c: float
    ) -> float | None:
        """Leftmost ``x`` in ``[lo, hi] ∩ [x0, x1]`` with ``y(x) >= c - x``.

        The descending line ``D(x) = c - x`` has slope −1; this is the line
        Algorithm 1 of the paper intersects with the preemption-delay
        function within each analysis window.

        Returns:
            The leftmost meeting abscissa, or ``None`` when the piece stays
            strictly below the line on the whole clipped interval.
        """
        lo = max(lo, self.x0)
        hi = min(hi, self.x1)
        if lo > hi:
            return None
        # g(x) = y(x) - (c - x) is affine with slope (slope + 1); a meeting
        # point is a root of g crossing from below, or any x with g(x) >= 0.
        g_lo = self.value_at(lo) - (c - lo)
        if g_lo >= 0:
            return lo
        g_hi = self.value_at(hi) - (c - hi)
        if g_hi < 0:
            return None
        if g_hi == g_lo:  # constant g < 0 already excluded above
            return None
        # Linear interpolation for the root of g on [lo, hi].
        root = lo + (hi - lo) * (0.0 - g_lo) / (g_hi - g_lo)
        return min(max(root, lo), hi)

    def shifted(self, dx: float, dy: float) -> "Segment":
        """A copy of the segment translated by ``(dx, dy)``."""
        return Segment(self.x0 + dx, self.x1 + dx, self.y0 + dy, self.y1 + dy)

    def scaled(self, factor: float) -> "Segment":
        """A copy with ordinates multiplied by ``factor``."""
        return Segment(self.x0, self.x1, self.y0 * factor, self.y1 * factor)

    def clipped(self, lo: float, hi: float) -> "Segment":
        """The restriction of the piece to ``[lo, hi] ∩ [x0, x1]``."""
        lo = max(lo, self.x0)
        hi = min(hi, self.x1)
        if not lo < hi:
            raise ValueError(f"clip [{lo}, {hi}] leaves no width in {self!r}")
        return Segment(lo, hi, self.value_at(lo), self.value_at(hi))
