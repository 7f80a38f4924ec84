"""Side-by-side comparison of the delay bounds (paper, Section VI).

Bundles Algorithm 1, the Eq. 4 state of the art and (optionally) the naive
packing into a single report per ``(f, Q)`` pair, and provides the
dominance check the paper proves: Algorithm 1's bound never exceeds the
state of the art's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.delay_function import PreemptionDelayFunction
from repro.core.floating_npr import (
    FloatingNPRBound,
    WindowIndex,
    floating_npr_delay_bound,
)
from repro.core.naive import NaivePointSelection, naive_point_selection_bound
from repro.core.state_of_the_art import (
    StateOfTheArtBound,
    state_of_the_art_delay_bound,
)


@dataclass(frozen=True, slots=True)
class BoundComparison:
    """All bounds for one ``(f, Q)`` pair.

    Attributes:
        q: The NPR length.
        algorithm1: Result of the paper's Algorithm 1.
        state_of_the_art: Result of the Eq. 4 recurrence.
        naive: Optional naive packing result (unsound; for Fig. 2 demos).
    """

    q: float
    algorithm1: FloatingNPRBound
    state_of_the_art: StateOfTheArtBound
    naive: NaivePointSelection | None = None

    @property
    def improvement_factor(self) -> float:
        """``state_of_the_art / algorithm1`` delay ratio (>= 1 by Thm. 1 +
        the SOA's shape-obliviousness); ``inf`` when only SOA diverges and
        ``nan`` when both bounds are zero or both diverge."""
        soa = self.state_of_the_art.total_delay
        alg = self.algorithm1.total_delay
        if math.isinf(soa) and math.isinf(alg):
            return math.nan
        if math.isinf(soa):
            return math.inf
        if alg == 0.0:
            return math.nan if soa == 0.0 else math.inf
        return soa / alg


def compare_bounds(
    f: PreemptionDelayFunction,
    q: float,
    include_naive: bool = False,
    naive_grid_step: float = 1.0,
    f_max: float | None = None,
    index: WindowIndex | None = None,
) -> BoundComparison:
    """Compute every implemented bound for ``(f, q)``.

    Args:
        f: The preemption-delay function.
        q: The floating-NPR length.
        include_naive: Also run the (unsound) naive packing.
        naive_grid_step: Grid pitch for the naive DP.
        f_max: Precomputed ``f.max_value()`` for the Eq. 4 recurrence
            (see :func:`repro.core.state_of_the_art_delay_bound`); a
            context-holding sweep passes it so the global maximum is
            found once per function instead of once per ``(f, q)`` pair.
        index: Precomputed ``window_index(f)`` for Algorithm 1 (see
            :func:`repro.core.floating_npr_delay_bound`), built once per
            function by the same sweeps.
    """
    return BoundComparison(
        q=q,
        algorithm1=floating_npr_delay_bound(f, q, index=index),
        state_of_the_art=state_of_the_art_delay_bound(f, q, f_max=f_max),
        naive=(
            naive_point_selection_bound(f, q, naive_grid_step)
            if include_naive
            else None
        ),
    )


def algorithm1_dominates(comparison: BoundComparison, tolerance: float = 1e-9) -> bool:
    """Whether Algorithm 1's bound is at most the state of the art's.

    Divergence cases: if Algorithm 1 diverges, the SOA must diverge too
    (both stall exactly when ``max f >= Q``); a diverging SOA is dominated
    by any finite Algorithm 1 bound.
    """
    soa = comparison.state_of_the_art.total_delay
    alg = comparison.algorithm1.total_delay
    if math.isinf(alg):
        return math.isinf(soa)
    if math.isinf(soa):
        return True
    return alg <= soa + tolerance
