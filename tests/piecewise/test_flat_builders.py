"""Every step-function builder returns one ordinate tuple.

Algorithm 1 takes its flat walk only when a function's two ordinate
columns are one tuple (``y0 is y1``), so a builder that hands back two
equal tuples silently loses that path.  These tests pin the shared
column for each builder the analysis uses, and that functions whose
pieces have slopes, or whose two ends are equal but distinct objects,
keep two.
"""

from __future__ import annotations

import math

import pytest

from repro.core import PreemptionDelayFunction
from repro.experiments.functions_fig4 import FIG4_NAMES, fig4_delay_function
from repro.piecewise import (
    PiecewiseFunction,
    Segment,
    constant,
    from_points,
    gaussian_upper_step,
    max_envelope,
    step,
    unimodal_upper_step,
    upper_step_from_callable,
)


def shares_one_column(f: PiecewiseFunction) -> bool:
    _, _, y0s, y1s = f.coordinates
    return y0s is y1s


def bell(t: float) -> float:
    return 3.0 * math.exp(-((t - 40.0) ** 2) / 200.0)


BUILDERS = {
    "step-tuple": lambda: step((0.0, 1.0, 3.0), (2.0, -0.0)),
    "step-list": lambda: step([0.0, 1.0, 3.0], [2.0, -0.0]),
    "step-int": lambda: step([0, 1, 3], [2, 0]),
    "constant": lambda: constant(1.5, 0.0, 4.0),
    "from_step": lambda: PreemptionDelayFunction.from_step(
        [0.0, 2.0, 5.0], [1.0, 0.0]
    ).function,
    "from_constant": lambda: PreemptionDelayFunction.from_constant(1.0, 5.0).function,
    "gaussian": lambda: gaussian_upper_step(40.0, 100.0, 3.0, 0.0, 100.0, knots=64),
    "gaussian-offset": lambda: gaussian_upper_step(
        40.0, 100.0, 3.0, 0.0, 100.0, knots=64, offset=0.5
    ),
    "unimodal": lambda: unimodal_upper_step(bell, 40.0, 0.0, 100.0, knots=64),
    "sampled": lambda: upper_step_from_callable(bell, 0.0, 100.0, knots=16),
    "segments": lambda: PiecewiseFunction(
        [Segment(0.0, 1.0, 2.0, 2.0), Segment(1.0, 2.0, 0, 0)]
    ),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_step_builders_share_one_column(name):
    assert shares_one_column(BUILDERS[name]())


@pytest.mark.parametrize("name", FIG4_NAMES)
def test_every_figure4_function_shares_one_column(name):
    assert shares_one_column(fig4_delay_function(name, "literal", 128).function)


def test_max_envelope_of_two_steps_on_one_grid_shares_one_column():
    grid = [0.0, 1.0, 2.5, 4.0]
    f = step(grid, [1.0, 0.0, 3.0])
    g = step(grid, [0.5, -0.0, 3])
    assert shares_one_column(max_envelope(f, g))


def test_the_one_ulp_cell_patch_keeps_one_column():
    # From 10000 + 1 ulp a one-ulp cell's midpoint rounds onto its right
    # end, and the column-wise envelope patches that cell with the next
    # piece's value at both ends.
    grid = [0.0, math.nextafter(10000.0, math.inf)]
    for _ in range(2):
        grid.append(math.nextafter(grid[-1], math.inf))
    grid.append(10001.0)
    assert 0.5 * (grid[1] + grid[2]) == grid[2]
    f = step(grid, [1.0, 2.0, 3.0, 4.0])
    g = step(grid, [5.0, -0.0, 0.0, 1.0])
    envelope = max_envelope(f, g)
    assert envelope.coordinates[2][1] == 3.0  # cell 1 reads piece 2
    assert shares_one_column(envelope)


def test_slopes_and_distinct_ends_keep_two_columns():
    assert not shares_one_column(from_points([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]))
    # Equal but distinct objects: the ends differ in sign or in type.
    assert not shares_one_column(PiecewiseFunction([Segment(0.0, 1.0, 0.0, -0.0)]))
    assert not shares_one_column(
        PiecewiseFunction._from_coordinates((0.0,), (1.0,), (1,), (1.0,))
    )
