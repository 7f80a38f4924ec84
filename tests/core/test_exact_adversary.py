"""The exact worst case of Theorem 1's model, against Algorithm 1.

For an integer step function ``f`` on ``[0, C]`` and an integer
``Q > max f``, the model of :mod:`repro.core.floating_npr` fixes the
adversary completely:

* preemptions happen at integer progressions ``x`` with ``Q <= x < C``;
* a preemption at ``x`` pays ``F(x) = max(f(x-), f(x+))``, and the
  task then runs ``Q`` wall-clock units of which ``F(x)`` are that
  delay, so the next preemption is at ``x + Q - F(x)`` or later;
* with a cap of ``k``, at most ``k`` preemptions happen.

:func:`exact_worst_case` solves that by dynamic programming over the
integer grid, O(C) uncapped and O(C k) capped, and shares no code with
Algorithm 1.  Theorem 1 says Algorithm 1 bounds it, on the flat walk
with and without an index and on the general walk (a copy of ``f`` whose
two ordinate columns are equal but distinct), uncapped and capped; the
trace certificate holds on the same runs.  The unsound packing of
:mod:`repro.core.naive` spaces its points ``Q`` apart, which this model
admits, so it never exceeds the exact worst case.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from tests.core.test_trace_certificate import certify
from tests.core.test_window_index import kernel_paths

from repro.core import PreemptionDelayFunction, floating_npr_delay_bound
from repro.core.naive import naive_point_selection_bound
from repro.experiments.figure2 import run_figure2_demo


def charges(bounds: list[int], values: list[int]) -> list[int]:
    """``F(x) = max(f(x-), f(x+))`` at every integer ``x`` in ``[0, C)``
    of the step function ``values[k]`` on ``[bounds[k], bounds[k+1]]``."""
    out = []
    for k, value in enumerate(values):
        out.extend([value] * (bounds[k + 1] - bounds[k]))
    for k in range(1, len(values)):  # a jump pays its larger side
        out[bounds[k]] = max(values[k - 1], values[k])
    return out


def exact_worst_case(
    bounds: list[int], values: list[int], q: int, cap: int | None = None
) -> int:
    """The adversary's largest total delay (see the module docstring)."""
    wcet = bounds[-1]
    f = charges(bounds, values)
    assert q > max(f)
    if q >= wcet:
        return 0
    # best[y]: the largest total of preemptions all at >= y.  Uncapped,
    # one right-to-left pass reads its own later entries; capped, pass
    # j reads pass j - 1 (at most j - 1 preemptions after this one).
    best = [0] * (wcet + 1)
    for _ in range(1 if cap is None else cap):
        previous = best
        if cap is not None:
            best = [0] * (wcet + 1)
        for x in range(wcet - 1, q - 1, -1):
            after = previous[min(x + q - f[x], wcet)]
            best[x] = max(best[x + 1], f[x] + after)
    return best[q]


@st.composite
def integer_step_cases(draw):
    """``(bounds, values, q, cap)``: an integer step function of up to
    12 pieces on ``[0, C]`` with ``C <= 60``, an integer ``Q`` from
    just above ``max f`` to past ``C``, and a cap of ``None`` or
    ``0..5``."""
    wcet = draw(st.integers(2, 60))
    inner = draw(st.sets(st.integers(1, wcet - 1), max_size=11))
    bounds = [0, *sorted(inner), wcet]
    values = draw(
        st.lists(
            st.integers(0, 9), min_size=len(bounds) - 1, max_size=len(bounds) - 1
        )
    )
    q = draw(st.integers(max(values) + 1, max(values) + 1 + wcet))
    cap = draw(st.one_of(st.none(), st.integers(0, 5)))
    return bounds, values, q, cap


@settings(max_examples=300, deadline=None)
@given(integer_step_cases())
def test_algorithm1_bounds_the_exact_worst_case(case):
    bounds, values, q, cap = case
    exact = exact_worst_case(bounds, values, q, cap)
    f = PreemptionDelayFunction.from_step(
        [float(b) for b in bounds], [float(v) for v in values]
    )
    paths = kernel_paths(f)
    assert len(paths) == 3  # from_step: the general walk runs too
    for g, index in paths:
        bound = floating_npr_delay_bound(g, float(q), cap, index=index)
        assert bound.converged
        assert exact <= bound.total_delay
        certify(g, float(q), bound, cap)
    if cap is None:
        assert naive_point_selection_bound(f, float(q)).total_delay <= exact


def test_a_flat_function_is_charged_exactly():
    # f = 2 on [0, 20], Q = 5: preemptions every 3 from 5 on (5, 8, 11,
    # 14, 17) is the worst case, and Algorithm 1's windows are the
    # same five.
    bounds, values = [0, 20], [2]
    f = PreemptionDelayFunction.from_step([0.0, 20.0], [2.0])
    assert exact_worst_case(bounds, values, 5) == 10
    assert floating_npr_delay_bound(f, 5.0).total_delay == 10.0
    assert exact_worst_case(bounds, values, 5, cap=2) == 4
    assert floating_npr_delay_bound(f, 5.0, 2).total_delay == 4.0


def test_the_jump_pays_its_larger_side():
    # f = 0 on [0, 10] and 7 on [10, 12]; Q = 10: one preemption, at 10
    # or 11, paying 7 (at 10 the jump's larger side).
    assert charges([0, 10, 12], [0, 7]) == [0] * 10 + [7, 7]
    assert exact_worst_case([0, 10, 12], [0, 7], 10) == 7
    # A drop pays the plateau before it: f = 7 on [0, 10], 0 after.
    assert exact_worst_case([0, 10, 12], [7, 0], 10) == 7


def test_figure2_sits_between_the_run_and_algorithm1():
    # The paper's Figure 2 instance: the naive packing under-counts the
    # simulated run, which the exact adversary bounds, which Algorithm
    # 1 bounds.
    demo = run_figure2_demo()
    exact = exact_worst_case([0, 110, 390, 400], [0, 60, 0], 100)
    assert exact == 480  # at 110, 150, ..., 390
    assert demo.naive_bound < demo.simulated_delay <= exact
    assert exact <= demo.algorithm1_bound
