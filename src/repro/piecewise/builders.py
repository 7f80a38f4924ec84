"""Constructors for :class:`repro.piecewise.PiecewiseFunction`.

Two families of builders exist:

* exact builders (:func:`constant`, :func:`from_points`, :func:`step`) that
  take explicit breakpoints, and
* safe samplers (:func:`upper_step_from_callable`) that convert a smooth
  closed-form function into a piecewise-constant **upper bound**, which is
  the right direction for preemption-delay functions: analysing an
  over-approximation of ``f_i`` can only make the computed bounds larger,
  never unsound.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Sequence

from repro.piecewise.function import PiecewiseFunction
from repro.utils.checks import require
from repro.utils.seq import is_strictly_increasing, pairwise


def constant(value: float, lo: float, hi: float) -> PiecewiseFunction:
    """The constant function ``f(x) = value`` on ``[lo, hi]``."""
    if not hi > lo:
        raise ValueError(f"domain must have positive width, got [{lo}, {hi}]")
    return PiecewiseFunction._from_coordinates((lo,), (hi,), (value,), (value,))


def from_points(xs: Sequence[float], ys: Sequence[float]) -> PiecewiseFunction:
    """Continuous piecewise-linear interpolation through ``(xs, ys)``.

    Args:
        xs: Strictly increasing abscissae (at least two).
        ys: Ordinates, same length as ``xs``.
    """
    require(len(xs) == len(ys), "xs and ys must have the same length")
    require(len(xs) >= 2, "need at least two points")
    require(is_strictly_increasing(xs), "xs must be strictly increasing")
    return PiecewiseFunction._from_coordinates(xs[:-1], xs[1:], ys[:-1], ys[1:])


def step(bounds: Sequence[float], values: Sequence[float]) -> PiecewiseFunction:
    """Piecewise-constant function: ``f = values[k]`` on ``[bounds[k], bounds[k+1]]``.

    Args:
        bounds: Strictly increasing abscissae, one more than ``values``.
        values: The plateau value of each interval.
    """
    require(len(bounds) == len(values) + 1, "need len(bounds) == len(values) + 1")
    require(len(values) >= 1, "need at least one interval")
    require(is_strictly_increasing(bounds), "bounds must be strictly increasing")
    values = tuple(values)
    return PiecewiseFunction._from_coordinates(bounds[:-1], bounds[1:], values, values)


def upper_step_from_callable(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    knots: int = 2048,
    oversample: int = 8,
) -> PiecewiseFunction:
    """Piecewise-constant upper approximation of a smooth callable.

    Each of the ``knots`` equal-width intervals receives the maximum of
    ``fn`` over ``oversample + 1`` evenly spaced probes (endpoints
    included).  For functions whose variation within a probe spacing is
    negligible (the paper's Gaussians with >= 2048 knots over [0, 4000]),
    the result is an upper bound for practical purposes; use
    :func:`unimodal_upper_step` for an exact bound on unimodal shapes.

    Args:
        fn: The function to approximate.
        lo: Domain start.
        hi: Domain end (> lo).
        knots: Number of constant pieces.
        oversample: Number of probe sub-intervals per piece.
    """
    require(hi > lo, f"domain must have positive width, got [{lo}, {hi}]")
    require(knots >= 1, "need at least one knot interval")
    require(oversample >= 1, "oversample must be >= 1")
    width = (hi - lo) / knots
    bounds = [lo + k * width for k in range(knots)] + [hi]
    values = []
    for a, b in pairwise(bounds):
        probes = [a + (b - a) * j / oversample for j in range(oversample + 1)]
        values.append(max(fn(p) for p in probes))
    return step(bounds, values)


def unimodal_upper_step(
    fn: Callable[[float], float],
    peak: float,
    lo: float,
    hi: float,
    knots: int = 2048,
) -> PiecewiseFunction:
    """Exact piecewise-constant upper bound of a *unimodal* callable.

    ``fn`` must be non-decreasing on ``[lo, peak]`` and non-increasing on
    ``[peak, hi]`` (e.g. a Gaussian bump with mean ``peak``).  Unimodality
    makes the per-interval maximum exactly computable: it is attained at an
    interval endpoint, or at ``peak`` when ``peak`` lies inside the
    interval.  The returned step function therefore dominates ``fn``
    everywhere — no sampling gap.

    Args:
        fn: Unimodal function.
        peak: Abscissa of the mode.
        lo: Domain start.
        hi: Domain end (> lo).
        knots: Number of constant pieces.
    """
    require(hi > lo, f"domain must have positive width, got [{lo}, {hi}]")
    require(knots >= 1, "need at least one knot interval")
    width = (hi - lo) / knots
    bounds = [lo + k * width for k in range(knots)] + [hi]
    # One call per knot (interior knots bound two intervals) and at most one
    # at the peak; max keeps the argument order (a, b, peak), which decides
    # ties between zeros of opposite sign.
    ys = [fn(x) for x in bounds]
    values = list(map(max, ys, ys[1:]))
    # The interval(s) holding the peak: one, or two when it sits on a knot.
    first = max(bisect.bisect_left(bounds, peak) - 1, 0)
    last = min(bisect.bisect_right(bounds, peak), knots)
    y_peak = None
    for k in range(first, last):
        if bounds[k] <= peak <= bounds[k + 1]:
            if y_peak is None:
                y_peak = fn(peak)
            values[k] = max(ys[k], ys[k + 1], y_peak)
    return step(bounds, values)
