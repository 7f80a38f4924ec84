"""Constructors for :class:`repro.piecewise.PiecewiseFunction`.

Two families of builders exist:

* exact builders (:func:`constant`, :func:`from_points`, :func:`step`) that
  take explicit breakpoints, and
* safe samplers (:func:`upper_step_from_callable`,
  :func:`unimodal_upper_step`, :func:`gaussian_upper_step`) that convert a
  smooth closed-form function into a piecewise-constant **upper bound**, which is
  the right direction for preemption-delay functions: analysing an
  over-approximation of ``f_i`` can only make the computed bounds larger,
  never unsound.
"""

from __future__ import annotations

import bisect
import math
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
    values = tuple(values)
    try:
        # Positive widths are exactly strictly increasing bounds, so the
        # constructor's width check is the grid check.
        return PiecewiseFunction._from_coordinates(bounds[:-1], bounds[1:], values, values)
    except (TypeError, ValueError):
        # A grid that is not strictly increasing reports so first.
        require(is_strictly_increasing(bounds), "bounds must be strictly increasing")
        raise


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
    bounds = _knot_bounds(lo, hi, knots)
    require(oversample >= 1, "oversample must be >= 1")
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

    ``fn`` is called once per knot (interior knots bound two intervals)
    and at most once at ``peak``.  Ties keep the candidate order
    ``(left end, right end, peak)``: of equal values the first wins, which
    decides the sign of a plateau between zeros of opposite sign.

    Args:
        fn: Unimodal function.
        peak: Abscissa of the mode.
        lo: Domain start.
        hi: Domain end (> lo).
        knots: Number of constant pieces.
    """
    bounds = _knot_bounds(lo, hi, knots)
    return _unimodal_step(bounds, list(map(fn, bounds)), peak, fn)


def gaussian_upper_step(
    mu: float,
    sigma2: float,
    amplitude: float,
    lo: float,
    hi: float,
    knots: int = 2048,
    offset: float = 0.0,
) -> PiecewiseFunction:
    """:func:`unimodal_upper_step` of the bell
    ``offset + amplitude * exp(-(t - mu)**2 / (2 sigma2))``, peaking at ``mu``.

    The same function, float for float, as passing that bell as a
    closure, but the knot values come from one comprehension instead of
    one Python call per knot.  A zero ``offset`` is not added: for
    ``amplitude >= 0`` that changes no bit, the bell being ``+0.0`` at
    least.

    Args:
        mu: Mean (the peak's abscissa).
        sigma2: Variance (> 0).
        amplitude: Height of the bell above ``offset`` (>= 0).
        lo: Domain start.
        hi: Domain end (> lo).
        knots: Number of constant pieces.
        offset: Constant floor.
    """
    bounds = _knot_bounds(lo, hi, knots)
    # -(x) / d and x / -d round alike: rounding to nearest is symmetric.
    divisor = -(2.0 * sigma2)
    exp = math.exp
    ys = [amplitude * exp((t - mu) ** 2 / divisor) for t in bounds]
    if offset:
        ys = [offset + y for y in ys]

    def bell(t: float) -> float:
        y = amplitude * exp((t - mu) ** 2 / divisor)
        return offset + y if offset else y

    return _unimodal_step(bounds, ys, mu, bell)


def _knot_bounds(lo: float, hi: float, knots: int) -> list[float]:
    """The ``knots + 1`` ends of ``knots`` equal-width intervals of
    ``[lo, hi]``; the last is ``hi`` itself."""
    require(hi > lo, f"domain must have positive width, got [{lo}, {hi}]")
    require(knots >= 1, "need at least one knot interval")
    width = (hi - lo) / knots
    bounds = [lo + k * width for k in range(knots)]
    bounds.append(hi)
    return bounds


def _unimodal_step(
    bounds: list[float],
    ys: list[float],
    peak: float,
    fn: Callable[[float], float],
) -> PiecewiseFunction:
    """The step function whose plateau ``k`` is the larger of ``ys[k]`` and
    ``ys[k + 1]``, raised to ``fn(peak)`` on the interval(s) holding
    ``peak``; ``fn`` is called only when some interval holds it."""
    # ``b if b > a else a`` is ``max(a, b)``: the first of equal values.
    values = [b if b > a else a for a, b in zip(ys, ys[1:])]
    # The interval(s) holding the peak: one, or two when it sits on a knot.
    knots = len(values)
    first = max(bisect.bisect_left(bounds, peak) - 1, 0)
    last = min(bisect.bisect_right(bounds, peak), knots)
    y_peak = None
    for k in range(first, last):
        if bounds[k] <= peak <= bounds[k + 1]:
            if y_peak is None:
                y_peak = fn(peak)
            values[k] = max(ys[k], ys[k + 1], y_peak)
    return step(bounds, values)
