"""The paper's primary contribution (substrates S2–S4).

* :func:`floating_npr_delay_bound` — Algorithm 1 (Theorem 1 bound), and
  :func:`window_index`, its per-function index for Q sweeps.
* :func:`state_of_the_art_delay_bound` — the Eq. 4 baseline.
* :func:`naive_point_selection_bound` — the unsound packing of Figure 2.
* :func:`compare_bounds` — side-by-side report with dominance checking.
"""

from repro.core.bounds import (
    BoundComparison,
    algorithm1_dominates,
    compare_bounds,
)
from repro.core.delay_function import PreemptionDelayFunction
from repro.core.floating_npr import (
    FloatingNPRBound,
    WindowIndex,
    WindowStep,
    floating_npr_delay_bound,
    window_index,
)
from repro.core.naive import NaivePointSelection, naive_point_selection_bound
from repro.core.state_of_the_art import (
    StateOfTheArtBound,
    state_of_the_art_delay_bound,
)

__all__ = [
    "PreemptionDelayFunction",
    "FloatingNPRBound",
    "WindowStep",
    "WindowIndex",
    "floating_npr_delay_bound",
    "window_index",
    "StateOfTheArtBound",
    "state_of_the_art_delay_bound",
    "NaivePointSelection",
    "naive_point_selection_bound",
    "BoundComparison",
    "compare_bounds",
    "algorithm1_dominates",
]
