"""Algorithm 1's flat walk and its :class:`~repro.core.floating_npr.WindowIndex`
against a frozen copy of the general walk.

A step function (one ordinate tuple) whose pieces meet exactly takes
the flat walk: each piece is its value at ``max(a, prog)``, and with an
index each window bisects the prefix maxima of the pieces' reach for
the first piece that might meet the line and folds the whole pieces
before it with one ``max`` over their values.  The meeting piece and
the jump rule at ``p∩`` keep the walk's arithmetic, so the bound, its
flags and all five trace columns must be the walk's bit for bit: signed
zeros, ``int``/``float`` ties, a jump at ``p∩``, ``Q`` below, at and
just above ``max f``, capped runs, functions with slopes or with equal
but distinct ordinate columns (the general walk) and functions whose
pieces meet only within the contiguity tolerance (which get no index).
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PreemptionDelayFunction,
    compare_bounds,
    floating_npr_delay_bound,
    window_index,
)
from repro.engine.context import build_context
from repro.engine.sweeps import (
    BoundScenario,
    StudyScenario,
    bound_context_key,
    evaluate_bound_scenario,
    evaluate_study_scenario,
)
from repro.experiments.fig5 import default_q_grid
from repro.experiments.functions_fig4 import FIG4_NAMES, fig4_delay_function
from repro.piecewise import PiecewiseFunction, Segment, step
from repro.piecewise.function import _value_on

# ----------------------------------------------------------------------
# The frozen walk (the kernel as it was before the index)
# ----------------------------------------------------------------------


def reference_walk(f, q, max_preemptions=None, max_iterations=1_000_000):
    """``(total, converged, preemptions, columns)`` of the one-walk-per-
    window kernel, every piece visited."""
    x0s, x1s, y0s, y1s = f.function.coordinates
    exact = x1s[:-1] == x0s[1:]
    pieces = len(x0s)
    wcet = f.wcet
    floor = q - q * 1e-12
    columns = ([], [], [], [], [])
    progs, crosses, argmaxes, delays, nexts = columns
    total_delay = 0.0
    p_next = q
    iteration = 0
    while p_next < wcet:
        iteration += 1
        if iteration > max_iterations:
            raise ValueError(
                f"Algorithm 1 exceeded {max_iterations} iterations "
                f"(C={wcet}, Q={q}); the bound is close to divergence"
            )
        prog = p_next
        c = prog + q
        hi = min(c, wcet)
        first = max(bisect_right(x0s, prog) - 2, 0)
        last = max(bisect_right(x0s, hi) - 1, first)
        best_v = -math.inf
        best_x = prog
        p_cross = None
        for k in range(first, last + 1):
            a, b, ya, yb = x0s[k], x1s[k], y0s[k], y1s[k]
            if prog < a and b < hi and ya - (c - a) < 0 and yb - (c - b) < 0:
                if yb > ya:
                    v, x = yb, b
                else:
                    v, x = ya, a
            else:
                s_lo = a if a > prog else prog
                s_hi = b if b < hi else hi
                if s_lo > s_hi:
                    continue
                v_lo = _value_on(a, b, ya, yb, s_lo)
                g_lo = v_lo - (c - s_lo)
                if g_lo >= 0:
                    p_cross = s_lo
                    break
                v_hi = _value_on(a, b, ya, yb, s_hi)
                g_hi = v_hi - (c - s_hi)
                if not (g_hi < 0 or g_hi == g_lo):
                    root = s_lo + (s_hi - s_lo) * (0.0 - g_lo) / (g_hi - g_lo)
                    p_cross = min(max(root, s_lo), s_hi)
                    break
                if v_hi > v_lo:
                    v, x = v_hi, s_hi
                else:
                    v, x = v_lo, s_lo
            if v > best_v or (v == best_v and x < best_x):
                best_v, best_x = v, x
        if p_cross is None:
            p_cross = hi
        elif exact:
            v_hi = v_lo if p_cross == s_lo else _value_on(a, b, ya, yb, p_cross)
            if v_hi > v_lo:
                v, x = v_hi, p_cross
            else:
                v, x = v_lo, s_lo
            if v > best_v or (v == best_v and x < best_x):
                best_v, best_x = v, x
            k += 1
            if k < pieces and x0s[k] == p_cross and y0s[k] > best_v:
                best_v, best_x = y0s[k], x0s[k]
        else:
            best_v, best_x = f.max_on(prog, p_cross)
        if best_v >= floor:
            return math.inf, False, len(delays), columns
        p_next = c - best_v
        total_delay += best_v
        progs.append(prog)
        crosses.append(p_cross)
        argmaxes.append(best_x)
        delays.append(best_v)
        nexts.append(p_next)
    preemptions = len(delays)
    if max_preemptions is not None and max_preemptions < preemptions:
        total_delay = sum(sorted(delays, reverse=True)[:max_preemptions])
        preemptions = max_preemptions
    return total_delay, True, preemptions, columns


def bits(value):
    """``value`` as its type and ``repr``: tells ``-0.0`` from ``0.0``
    and ``3`` from ``3.0``."""
    return type(value).__name__, repr(value)


def as_bits(total, converged, preemptions, columns) -> tuple:
    return (
        bits(total),
        converged,
        preemptions,
        [[bits(v) for v in column] for column in columns],
    )


def is_flat(f) -> bool:
    """Whether ``f`` holds one ordinate tuple, which sends a function
    whose pieces meet exactly down the kernel's flat walk."""
    _, _, y0s, y1s = f.function.coordinates
    return y0s is y1s


def with_distinct_ends(f):
    """``f`` with a ``y1`` column of equal but distinct objects, which
    the kernel runs through the general walk: a reference for the flat
    walk on the same values (an ``int`` end becomes a ``float``)."""
    x0s, x1s, y0s, _ = f.function.coordinates
    copy = PreemptionDelayFunction(
        PiecewiseFunction._from_coordinates(
            x0s, x1s, y0s, [float(repr(y)) for y in y0s]
        )
    )
    assert not is_flat(copy)
    return copy


def kernel_paths(f, index=None):
    """``(function, index)`` for each kernel path over ``f``'s values:
    ``f`` with its index (``index``, else ``window_index(f)``) and
    without, and for a step function the general walk of
    :func:`with_distinct_ends`."""
    paths = [(f, window_index(f) if index is None else index), (f, None)]
    if is_flat(f):
        paths.append((with_distinct_ends(f), None))
    return paths


def kernel_outcome(f, q, cap=None, max_iterations=1_000_000, index=None):
    try:
        bound = floating_npr_delay_bound(f, q, cap, max_iterations, index=index)
    except ValueError as error:
        return ("raised", str(error))
    return as_bits(bound.total_delay, bound.converged, bound.preemptions, bound.trace)


def reference_outcome(f, q, cap=None, max_iterations=1_000_000):
    try:
        return as_bits(*reference_walk(f, q, cap, max_iterations))
    except ValueError as error:
        return ("raised", str(error))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Ordinates with signed zeros and ``int``/``float`` ties.
ordinates = st.sampled_from([0.0, -0.0, 0, 1, 1.0, 2.0, 2, 3.0, 5, 5.0, 8.0])

#: Zeros that compare equal and differ in sign or type.
zeros = st.sampled_from([0.0, -0.0, 0])


@st.composite
def long_window_functions(draw):
    """Step or continuous functions of 25 to 80 pieces, most much
    narrower than ``Q``, at float cuts or on an integer grid, where the
    line meets pieces at their ends and on jumps and some pieces start
    up to 1e-9 off the previous piece's end."""
    wcet = draw(st.sampled_from([40.0, 64.0, 100.0]))
    on_grid = draw(st.booleans())
    if on_grid:
        grid = st.integers(1, int(wcet) - 1)
        cuts = draw(st.lists(grid, min_size=25, max_size=80, unique=True))
        knots = sorted(map(float, cuts))
    else:
        cuts = draw(st.lists(st.floats(0.0, 1.0), min_size=25, max_size=80))
        knots = sorted({k for k in (t * wcet for t in cuts) if 0.0 < k < wcet})
    xs = [0.0, *knots, wcet]
    pieces = len(xs) - 1
    column = st.lists(ordinates, min_size=pieces, max_size=pieces)
    y0 = draw(column)
    y1 = y0 if draw(st.booleans()) else draw(column)
    shifts = [0.0] * pieces
    if on_grid and draw(st.integers(0, 3)) == 0:
        shift = st.sampled_from([0.0, 5e-10, -5e-10, 9e-10, -9e-10])
        shifts = [0.0, *draw(st.lists(shift, min_size=pieces - 1, max_size=pieces - 1))]
    return PreemptionDelayFunction(
        PiecewiseFunction(
            Segment(xs[k] + shifts[k], xs[k + 1], y0[k], y1[k]) for k in range(pieces)
        )
    )


@st.composite
def cases(draw):
    """``(f, q, cap, max_iterations)``: Q anywhere, at or just above
    ``max f`` (with a small iteration cap, as such runs stall), or far
    above it."""
    f = draw(long_window_functions())
    peak = f.max_value()
    kind = draw(st.sampled_from(["any", "any", "near", "wide"]))
    max_iterations = 1_000_000
    if kind == "any":
        q = draw(st.one_of(st.integers(1, 40).map(float), st.floats(0.5, 40.0)))
    elif kind == "near":
        gap = draw(st.sampled_from([0.0, 2.0**-40, 2.0**-20, 0.125, 0.5, 1.0]))
        q = max(float(peak) + gap, 0.25)
        if gap < 0.125:
            max_iterations = 40
    else:
        q = draw(st.floats(float(peak) + 8.0, 60.0))
    cap = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=6)))
    return f, q, cap, max_iterations


@st.composite
def step_functions(draw):
    """Step functions built by ``step``, so one ordinate tuple: up to 60
    pieces at float cuts or on an integer grid, or a piece per unit,
    where integer ``Q`` starts windows on a knot.  The values have
    signed zeros and ``int``/``float`` ties, or are all zeros, which
    tie everywhere."""
    wcet = draw(st.sampled_from([40.0, 64.0, 100.0]))
    grid = draw(st.sampled_from(["unit", "integer", "float"]))
    if grid == "unit":
        knots = [float(x) for x in range(1, int(wcet))]
    elif grid == "integer":
        cuts = draw(st.lists(st.integers(1, int(wcet) - 1), max_size=60, unique=True))
        knots = sorted(map(float, cuts))
    else:
        cuts = draw(st.lists(st.floats(0.0, 1.0), max_size=60))
        knots = sorted({k for k in (t * wcet for t in cuts) if 0.0 < k < wcet})
    xs = [0.0, *knots, wcet]
    value = draw(st.sampled_from([ordinates, ordinates, zeros]))
    values = draw(st.lists(value, min_size=len(xs) - 1, max_size=len(xs) - 1))
    return PreemptionDelayFunction.from_step(xs, values)


@st.composite
def flat_cases(draw):
    """``(f, q, cap, max_iterations)`` on a step function: Q below
    ``max f`` (with a small iteration cap, as such runs stall or
    diverge), at it, just above it, anywhere, or far above it."""
    f = draw(step_functions())
    peak = float(f.max_value())
    kind = draw(st.sampled_from(["below", "at", "near", "any", "any", "wide"]))
    max_iterations = 1_000_000
    if kind == "below":
        q = draw(st.floats(0.25, max(peak, 0.25)))
        max_iterations = 40
    elif kind == "at":
        q = max(peak, 0.25)
        max_iterations = 40
    elif kind == "near":
        q = max(peak + draw(st.sampled_from([2.0**-40, 2.0**-20, 0.125, 1.0])), 0.25)
    elif kind == "any":
        q = draw(st.one_of(st.integers(1, 40).map(float), st.floats(0.5, 40.0)))
    else:
        q = draw(st.floats(peak + 8.0, 60.0))
    cap = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=6)))
    return f, q, cap, max_iterations


# ----------------------------------------------------------------------
# Properties and fixed cases
# ----------------------------------------------------------------------


class TestIndexedKernel:
    # No deadline: the frozen walk and both kernel paths run each case.
    @settings(deadline=None)
    @given(cases())
    def test_indexed_and_walk_match_the_frozen_walk(self, case):
        f, q, cap, max_iterations = case
        expected = reference_outcome(f, q, cap, max_iterations)
        assert kernel_outcome(f, q, cap, max_iterations, index=window_index(f)) == expected
        assert kernel_outcome(f, q, cap, max_iterations) == expected

    @settings(deadline=None)
    @given(flat_cases())
    def test_the_flat_walk_matches_the_frozen_walk(self, case):
        f, q, cap, max_iterations = case
        assert is_flat(f)
        index = window_index(f)
        assert index is not None and index.peaks is f.function.coordinates[2]
        expected = reference_outcome(f, q, cap, max_iterations)
        assert kernel_outcome(f, q, cap, max_iterations, index=index) == expected
        assert kernel_outcome(f, q, cap, max_iterations) == expected

    @pytest.mark.parametrize("zero", [-0.0, 0])
    def test_a_piece_cut_inside_adds_a_zero(self, zero):
        # prog = Q cuts a piece strictly inside, where the walk's
        # interpolation returns zero + 0.0: 0.0, a float, not the
        # stored -0.0 or int 0.  Unit pieces let Q = 30.5 fold too.
        for width, q in ((3.0, 5.0), (1.0, 30.5), (1.0, 2.5)):
            xs = [width * k for k in range(61)]
            f = PreemptionDelayFunction.from_step(xs, [zero] * 60)
            assert is_flat(f)
            for index in (window_index(f), None):
                outcome = kernel_outcome(f, q, index=index)
                assert outcome == reference_outcome(f, q)
                assert outcome[3][3][0] == ("float", "0.0")

    @pytest.mark.parametrize(
        "values, delay",
        [
            # The piece ending at prog = 10 offers 3.0 there, above the
            # 2.0 of the piece starting there and everything folded.
            ([1.0] * 9 + [3.0, 2.0] + [1.0] * 49, ("float", "3.0")),
            # All zeros: the first of the two pieces at prog wins the tie.
            ([0.0, -0.0] * 30, ("float", "-0.0")),
            ([0.0, 0] * 30, ("int", "0")),
        ],
    )
    def test_a_fold_starting_on_a_knot_keeps_both_pieces_there(self, values, delay):
        # Q = 10 over unit pieces: window 1 starts on the knot 10 and
        # folds the pieces from 11 on.
        f = PreemptionDelayFunction.from_step([float(x) for x in range(61)], values)
        index = window_index(f)
        outcome = kernel_outcome(f, 10.0, index=index)
        assert outcome == reference_outcome(f, 10.0)
        assert outcome[3][3][0] == delay
        # The fold ran: raising the folded values changes the charge.
        raised = dataclasses.replace(index, peaks=tuple(y + 5.0 for y in index.peaks))
        assert floating_npr_delay_bound(f, 10.0, index=raised).steps[0].delay >= 5.0

    def test_equal_but_distinct_columns_take_the_general_walk(self):
        # y0 = 0.0 and y1 = -0.0 compare equal but are not one tuple.
        # At prog = 5 the piece ending there offers its y1 = -0.0, which
        # the next piece's y0 = 0.0 does not beat; a walk reading y0
        # alone would charge 0.0.
        f = PreemptionDelayFunction(
            PiecewiseFunction(
                Segment(float(x), float(x + 5), 0.0, -0.0) for x in range(0, 60, 5)
            )
        )
        x0s, x1s, y0s, y1s = f.function.coordinates
        assert y0s == y1s and y0s is not y1s
        assert window_index(f) is None
        outcome = kernel_outcome(f, 5.0)
        assert outcome == reference_outcome(f, 5.0)
        assert outcome[3][3][0] == ("float", "-0.0")

    def test_a_long_window_folds_and_keeps_the_jump_at_p_cross(self):
        # Q = 30 over unit pieces of value 1: window 1 (prog 30, D(x) =
        # 60 - x) folds the pieces [31, 53), meets the line at the end of
        # [53, 54] (value 6) and takes the next piece's jump to 9 there.
        values = [1.0] * 61
        values[53], values[54] = 6.0, 9.0
        f = PreemptionDelayFunction(step([float(x) for x in range(62)], values))
        index = window_index(f)
        assert kernel_outcome(f, 30.0, index=index) == reference_outcome(f, 30.0)
        bound = floating_npr_delay_bound(f, 30.0, index=index)
        first = bound.steps[0]
        assert (first.prog, first.p_cross, first.p_max, first.delay, first.p_next) == (
            30.0,
            54.0,
            54.0,
            9.0,
            51.0,
        )
        # The fold reads the index's peaks: raising them changes window
        # 1's charge, so the pieces really were folded, not walked.
        raised = dataclasses.replace(index, peaks=tuple(p + 20.0 for p in index.peaks))
        assert floating_npr_delay_bound(f, 30.0, index=raised).steps[0].delay == 21.0

    def test_ties_in_a_fold_keep_the_first_piece_and_its_zero(self):
        # Equal peaks of both signs of zero and of int and float type:
        # the walk keeps the first, and so must the fold.
        values = [-0.0, 0.0, 0, -0.0] * 10 + [2, 2.0, 1.0] * 5 + [0.0] * 5
        f = PreemptionDelayFunction(step([float(x) for x in range(len(values) + 1)], values))
        index = window_index(f)
        for q in (12.0, 20.5, 33.0):
            for cap in (None, 2):
                assert kernel_outcome(f, q, cap, index=index) == reference_outcome(f, q, cap)

    def test_within_tolerance_functions_get_no_index(self):
        f = PreemptionDelayFunction(
            PiecewiseFunction(
                [Segment(0.0, 12.0, 1.0, 1.0), Segment(12.0 + 5e-10, 30.0, 2.0, 2.0)]
            )
        )
        assert window_index(f) is None
        assert window_index(PreemptionDelayFunction.from_constant(1.0, 30.0)) is not None

    def test_an_index_of_another_function_is_refused(self):
        f = PreemptionDelayFunction.from_constant(1.0, 30.0)
        g = PreemptionDelayFunction.from_constant(1.0, 30.0)
        with pytest.raises(ValueError, match="another function"):
            floating_npr_delay_bound(f, 5.0, index=window_index(g))

    def test_the_index_holds_prefix_reach_and_peaks(self):
        f = PreemptionDelayFunction.from_step([0.0, 1.0, 2.0, 4.0], [3.0, 0.0, 1.0])
        index = window_index(f)
        assert index.function is f.function
        assert index.peak == 3.0
        assert index.peaks is f.function.coordinates[2]
        assert index.reach == (4.0, 4.0, 5.0)

    def test_functions_with_slopes_get_no_index(self):
        f = PreemptionDelayFunction.from_points([0.0, 1.0, 2.0, 4.0], [3.0, 0.0, 1.0, 0.5])
        assert window_index(f) is None

    def test_figure4_functions_match_the_walk_on_a_q_grid(self):
        for name in FIG4_NAMES:
            f = fig4_delay_function(name, "literal", 256)
            index = window_index(f)
            for q in default_q_grid(points=12):
                for cap in (None, 3):
                    expected = reference_outcome(f, q, cap)
                    assert kernel_outcome(f, q, cap, index=index) == expected


class TestWhoBuildsTheIndex:
    def test_the_bound_context_carries_the_function_index(self):
        scenario = BoundScenario(function="bimodal", q=100.0, knots=128)
        context = build_context(bound_context_key(scenario))
        assert context.function_index is not None
        assert context.function_index.function is context.function.function
        without = compare_bounds(context.function, 100.0, f_max=context.function_max)
        result = evaluate_bound_scenario(scenario)
        assert (result.algorithm1, result.preemptions) == (
            without.algorithm1.total_delay,
            without.algorithm1.preemptions,
        )

    def test_the_study_path_builds_no_index(self, monkeypatch):
        def refuse(f):
            raise AssertionError("the study path must not build a window index")

        monkeypatch.setattr("repro.core.floating_npr.window_index", refuse)
        monkeypatch.setattr("repro.engine.context.window_index", refuse)
        admitted = 0
        for seed in range(4):
            scenario = StudyScenario(
                utilization=0.6,
                seed=seed,
                n_tasks=3,
                q_fraction=0.5,
                delay_height=0.05,
                methods=("algorithm1",),
            )
            admitted += evaluate_study_scenario(scenario).admitted
        assert admitted  # Algorithm 1 ran on some set
