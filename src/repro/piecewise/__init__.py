"""Exact piecewise-affine function machinery (substrate S1).

The paper's preemption-delay functions ``f_i`` and every derived curve are
represented as :class:`PiecewiseFunction` objects: ordered contiguous affine
segments with optional jump discontinuities.  All interval queries used by
the analyses (interval maxima, descending-line crossings) are exact.

A function stores its pieces as four index-aligned coordinate tuples
(``x0, x1, y0, y1``) and the queries walk those tuples directly;
:class:`Segment` objects are built only when ``.segments`` is read.
"""

from repro.piecewise.builders import (
    constant,
    from_points,
    gaussian_upper_step,
    step,
    unimodal_upper_step,
    upper_step_from_callable,
)
from repro.piecewise.function import PiecewiseFunction
from repro.piecewise.operations import (
    add,
    combine,
    max_envelope,
    min_envelope,
    subtract,
)
from repro.piecewise.segments import Segment

__all__ = [
    "Segment",
    "PiecewiseFunction",
    "constant",
    "from_points",
    "step",
    "gaussian_upper_step",
    "unimodal_upper_step",
    "upper_step_from_callable",
    "add",
    "subtract",
    "combine",
    "max_envelope",
    "min_envelope",
]
