"""Bit-identity of the piecewise layer's fast paths with the code they
replace.

* :meth:`PiecewiseFunction.max_on` reads the end values of pieces that
  lie strictly inside the query instead of clipping them, and
  :meth:`PiecewiseFunction.first_meeting_with_descending_line` skips
  such pieces when both ends are below the line.  Both must return what
  the loops below return, signed zeros and tie order included, and so
  must :meth:`PiecewiseFunction.max_value`.
* :func:`unimodal_upper_step` evaluates the callable once per knot; it
  must build the same step function as the loop below, which evaluates
  both ends of every interval.
* A :class:`PiecewiseFunction` stores coordinate tuples, validated as
  whole tuples.  The tuple constructor, :func:`combine`,
  :func:`max_envelope` and every window of Algorithm 1 must match
  frozen copies of the :class:`Segment`-based code: the same function
  or the same first error, and the same :class:`WindowStep` trace.
* Algorithm 1 runs each window as one forward walk that finds ``p∩``
  and the window's maximum together, and records its trace as float
  columns.  Every window must match the two-scan loop below (``p∩``,
  then ``max_on``), and ``.steps`` must read as the eager trace did.
* A study context is built from one comprehension of bell values per
  task (:func:`gaussian_upper_step`), one validation per :class:`Task`,
  a ``max_value`` read from the ordinate tuples and a blocking-tolerance
  loop with its workload inlined.  The generated task sets, their delay
  functions, maxima and tolerances must equal frozen copies of the
  closure-per-knot factory, the ``replace``-based task copies, the
  ``max_on`` walk and the ``_level_i_workload`` loop, bit for bit.
* :func:`max_envelope` of two functions on one grid reads each cell's
  values from the coordinate tuples; it must return what the frozen
  per-cell ``_segment_on_cell`` loop returns, including a one-ulp cell
  whose midpoint rounds onto its right end.
"""

import bisect
import dataclasses
import math
import operator
import pickle
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import PreemptionDelayFunction, floating_npr_delay_bound
from repro.core.floating_npr import FloatingNPRBound, WindowStep
from repro.experiments.functions_fig4 import FIG4_NAMES, INTERPRETATIONS, fig4_delay_function
from repro.npr import fp_blocking_tolerances
from repro.piecewise import (
    PiecewiseFunction,
    Segment,
    combine,
    gaussian_upper_step,
    max_envelope,
    min_envelope,
    step,
    unimodal_upper_step,
)
from repro.tasks import Task, TaskSet, gaussian_delay_factory, generate_task_set
from repro.tasks.generation import uunifast_discard, log_uniform_period
from repro.utils.seq import pairwise

#: Ordinates rich in ties: equal values, and zeros of both signs.
tie_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 2.5, 7.0])


def bits(value):
    """``value`` with its sign, so ``0.0`` and ``-0.0`` compare unequal."""
    if value is None:
        return None
    return value, math.copysign(1.0, value)


def outcome(call) -> tuple:
    """``bits`` of each float ``call()`` returns, or the message it raises."""
    try:
        result = call()
    except ValueError as error:
        return ("raised", str(error))
    if isinstance(result, tuple):
        return tuple(bits(v) for v in result)
    return bits(result)


def segment_bits(f: PiecewiseFunction) -> list[tuple]:
    return [tuple(bits(v) for v in (s.x0, s.x1, s.y0, s.y1)) for s in f]


def reference_max_on(f, lo, hi):
    """``PiecewiseFunction.max_on`` as it was, clipping every piece."""
    d_lo, d_hi = f.domain
    if not d_lo <= lo <= hi <= d_hi:
        raise ValueError(f"[{lo}, {hi}] outside domain [{d_lo}, {d_hi}]")
    best_v = -float("inf")
    best_x = lo
    for idx in f._segment_range(lo, hi):
        seg = f.segments[idx]
        s_lo = max(lo, seg.x0)
        s_hi = min(hi, seg.x1)
        if s_lo > s_hi:
            continue
        v, x = seg.max_on(s_lo, s_hi)
        if v > best_v or (v == best_v and x < best_x):
            best_v, best_x = v, x
    return best_v, best_x


def reference_first_meeting(f, lo, hi, c):
    """``first_meeting_with_descending_line`` as it was, asking every piece."""
    d_lo, d_hi = f.domain
    if not d_lo <= lo <= hi <= d_hi:
        raise ValueError(f"[{lo}, {hi}] outside domain [{d_lo}, {d_hi}]")
    for idx in f._segment_range(lo, hi):
        seg = f.segments[idx]
        s_lo = max(lo, seg.x0)
        s_hi = min(hi, seg.x1)
        if s_lo > s_hi:
            continue
        meeting = seg.first_point_at_or_above_descending_line(s_lo, s_hi, c)
        if meeting is not None:
            return meeting
    return None


def reference_unimodal_upper_step(fn, peak, lo, hi, knots):
    """The loop ``unimodal_upper_step`` used before it shared knot values."""
    width = (hi - lo) / knots
    bounds = [lo + k * width for k in range(knots)] + [hi]
    values = []
    for a, b in pairwise(bounds):
        candidates = [fn(a), fn(b)]
        if a <= peak <= b:
            candidates.append(fn(peak))
        values.append(max(candidates))
    return step(bounds, values)


def assert_queries_match(f: PiecewiseFunction, lo: float, hi: float, c: float) -> None:
    assert outcome(lambda: f.max_on(lo, hi)) == outcome(lambda: reference_max_on(f, lo, hi))
    assert outcome(lambda: f.first_meeting_with_descending_line(lo, hi, c)) == outcome(
        lambda: reference_first_meeting(f, lo, hi, c)
    )
    domain = f.domain
    assert outcome(f.max_value) == outcome(lambda: f.max_on(*domain)[0])
    assert outcome(f.max_value) == outcome(lambda: reference_max_on(f, *domain)[0])


@st.composite
def queries(draw, f: PiecewiseFunction) -> tuple[float, float, float]:
    """An interval ending on breakpoints, domain ends or points between,
    and a line offset ``c`` that crosses the function somewhere."""
    points = [*f.breakpoints(), *(s.x0 for s in f)]
    d_lo, d_hi = f.domain
    between = st.floats(min_value=0.0, max_value=1.0).map(lambda t: d_lo + t * (d_hi - d_lo))
    ends = st.one_of(st.sampled_from(points), between)
    lo, hi = sorted((draw(ends), draw(ends)))
    c = draw(st.sampled_from([lo, hi, lo + 1.0, hi + 3.0, hi + 8.0]))
    return lo, hi, c


class TestIntervalQueries:
    @given(st.lists(tie_values, min_size=1, max_size=12), st.data())
    def test_step_functions(self, values, data):
        f = step([float(k) for k in range(len(values) + 1)], values)
        assert_queries_match(f, *data.draw(queries(f)))

    @given(st.lists(tie_values, min_size=2, max_size=12), st.data())
    def test_continuous_functions(self, ys, data):
        f = PiecewiseFunction(
            Segment(float(k), float(k + 1), y0, y1) for k, (y0, y1) in enumerate(pairwise(ys))
        )
        assert_queries_match(f, *data.draw(queries(f)))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([2e-10, 5e-10, 1e-9, 0.25, 1.0]),
                st.sampled_from([-1e-9, -6e-10, -3e-10, 0.0, 3e-10, 6e-10, 1e-9]),
                tie_values,
                tie_values,
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from([0.0, -0.0, 3.0]),
        st.data(),
    )
    def test_pieces_within_the_contiguity_tolerance(self, pieces, start, data):
        # Pieces narrower than the tolerance can start before the
        # previous one ends, reach back to the domain start or past the
        # domain end, or leave a domain that ends before it starts (both
        # sides then raise the same error).
        segments = []
        x = start
        for width, gap, y0, y1 in pieces:
            x0 = x + gap if segments else x
            segments.append(Segment(x0, x0 + width, y0, y1))
            x = x0 + width
        try:
            f = PiecewiseFunction(segments)
        except ValueError:
            assume(False)
        d_lo, d_hi = f.domain
        if d_lo <= d_hi:
            lo, hi, c = data.draw(queries(f))
        else:
            lo, hi, c = d_lo, d_hi, d_lo
        assert_queries_match(f, lo, hi, c)

    def test_signed_zero_tie_keeps_the_first_piece(self):
        f = step([0.0, 1.0, 2.0, 3.0], [-0.0, 0.0, 0.0])
        assert bits(f.max_value()) == (0.0, -1.0)
        assert_queries_match(f, 0.0, 3.0, 3.0)
        f = step([0.0, 1.0, 2.0, 3.0], [0.0, -0.0, 0.0])
        assert bits(f.max_value()) == (0.0, 1.0)
        assert_queries_match(f, 0.5, 2.5, 3.0)

    def test_tie_between_overlapping_pieces_takes_the_leftmost_argmax(self):
        # The second piece starts 0.5e-9 before the first ends, so its
        # tied maximum has the smaller argmax and wins the tie.
        f = PiecewiseFunction(
            [Segment(0.0, 1.0, -1.0, -0.0), Segment(1.0 - 5e-10, 2.0, 0.0, -1.0)]
        )
        assert bits(f.max_value()) == (0.0, 1.0)
        assert_queries_match(f, 0.0, 2.0, 2.0)

    def test_piece_reaching_back_to_the_domain_start(self):
        f = PiecewiseFunction(
            [
                Segment(0.0, 2e-10, 1.0, 1.0),
                Segment(0.0, 3e-10, 0.0, 0.0),
                Segment(0.0, 1.0, 0.5, 0.5),
            ]
        )
        assert_queries_match(f, 0.0, 1.0, 0.5)

    def test_piece_past_the_domain_end(self):
        f = PiecewiseFunction(
            [Segment(0.0, 1.0, 0.0, 10.0), Segment(1.0 - 8e-10, 1.0 - 6e-10, 1.0, 1.0)]
        )
        assert f.max_value() < 10.0
        assert_queries_match(f, 0.0, f.domain_end, 5.0)

    def test_signed_zero_abscissae(self):
        # A query end equal to a piece's end but of the other sign is
        # returned as given: only pieces strictly inside skip the clip.
        f = PiecewiseFunction([Segment(-0.0, 1.0, 5.0, 1.0), Segment(1.0, 2.0, 1.0, 1.0)])
        assert outcome(lambda: f.max_on(0.0, 2.0)) == ((5.0, 1.0), (0.0, 1.0))
        assert_queries_match(f, 0.0, 2.0, 1.0)
        f = PiecewiseFunction([Segment(-2.0, -1.0, 0.0, 1.0), Segment(-1.0, -0.0, 1.0, 5.0)])
        assert outcome(lambda: f.max_on(-2.0, 0.0)) == ((5.0, 1.0), (0.0, 1.0))
        assert_queries_match(f, -2.0, 0.0, 1.0)

    def test_line_meeting_inside_pieces(self):
        f = step([float(k) for k in range(9)], [0.0, 1.0, 0.0, 6.0, 2.0, 2.0, 9.0, 0.0])
        for lo, hi in [(0.0, 8.0), (0.5, 7.5), (1.0, 6.0), (2.0, 3.0)]:
            for c in (2.0, 5.0, 8.0, 9.0, 10.0, 20.0):
                assert_queries_match(f, lo, hi, c)


def bump(peak: float):
    return lambda x: math.exp(-((x - peak) ** 2) / 50.0)


class TestUnimodalUpperStep:
    @given(
        lo=st.integers(min_value=-50, max_value=50).map(float),
        width=st.floats(min_value=0.5, max_value=500.0),
        knots=st.integers(min_value=1, max_value=64),
        peak_at=st.floats(min_value=-0.5, max_value=1.5),
    )
    def test_matches_the_reference_loop(self, lo, width, knots, peak_at):
        hi = lo + width
        peak = lo + peak_at * width
        args = (bump(peak), peak, lo, hi, knots)
        assert segment_bits(unimodal_upper_step(*args)) == segment_bits(
            reference_unimodal_upper_step(*args)
        )

    @given(
        knots=st.integers(min_value=1, max_value=16),
        k=st.integers(min_value=0, max_value=16),
    )
    def test_peak_on_a_knot(self, knots, k):
        lo, hi = 0.0, 300.0
        width = (hi - lo) / knots
        peak = lo + k * width if k < knots else hi
        args = (bump(peak), peak, lo, hi, knots)
        assert segment_bits(unimodal_upper_step(*args)) == segment_bits(
            reference_unimodal_upper_step(*args)
        )

    def test_peak_at_either_end_and_one_knot(self):
        for knots in (1, 2, 7):
            for peak in (10.0, 20.0, 9.0, 21.0):
                args = (bump(peak), peak, 10.0, 20.0, knots)
                assert segment_bits(unimodal_upper_step(*args)) == segment_bits(
                    reference_unimodal_upper_step(*args)
                )

    def test_signed_zero_ties_keep_the_argument_order(self):
        # Every candidate is a zero; max keeps the first of equal values,
        # so the sign of each plateau tells which candidate won.
        peak = 5.0
        for zeros in [(-0.0, 0.0, -0.0), (0.0, -0.0, 0.0), (-0.0, -0.0, 0.0)]:

            def fn(x, zeros=zeros):
                left, at_peak, right = zeros
                if x < peak:
                    return left
                return at_peak if x == peak else right

            for knots in (1, 3, 4):
                args = (fn, peak, 0.0, 10.0, knots)
                assert segment_bits(unimodal_upper_step(*args)) == segment_bits(
                    reference_unimodal_upper_step(*args)
                )

    def test_each_knot_is_evaluated_once(self):
        calls = []

        def counted(x):
            calls.append(x)
            return bump(40.0)(x)

        unimodal_upper_step(counted, 40.0, 0.0, 100.0, knots=64)
        assert len(calls) == 65 + 1
        calls.clear()
        unimodal_upper_step(counted, 500.0, 0.0, 100.0, knots=64)
        assert len(calls) == 65


# ----------------------------------------------------------------------
# Frozen Segment-based reference code
# ----------------------------------------------------------------------

TOLERANCE = 1e-9
MERGE_TOLERANCE = 1e-12


def reference_function(segments) -> tuple:
    """``PiecewiseFunction.__init__`` as it was: the pieces, or its error."""
    segs = tuple(segments)
    if not segs:
        raise ValueError("a piecewise function needs at least one segment")
    for left, right in zip(segs, segs[1:]):
        if not abs(left.x1 - right.x0) <= TOLERANCE:
            raise ValueError(f"segments must be contiguous: {left!r} then {right!r}")
    return segs


def function_bits(pieces) -> list[tuple]:
    """``bits`` of every coordinate of a function or a tuple of pieces
    (read as stored: building a Segment would validate them again)."""
    if isinstance(pieces, PiecewiseFunction):
        rows = zip(*pieces.coordinates)
    else:
        rows = ((s.x0, s.x1, s.y0, s.y1) for s in pieces)
    return [tuple(bits(v) for v in row) for row in rows]


def built(call) -> tuple:
    """``function_bits`` of what ``call()`` builds, or the message it raises."""
    try:
        return ("built", function_bits(call()))
    except ValueError as error:
        return ("raised", str(error))


def reference_merged_grid(f, g):
    if not f.domain == g.domain:
        raise ValueError(f"domains differ: {f.domain} vs {g.domain}")
    points = sorted(set(f.breakpoints()) | set(g.breakpoints()))
    merged = [points[0]]
    for p in points[1:]:
        if p - merged[-1] > MERGE_TOLERANCE:
            merged.append(p)
    if merged[-1] != points[-1]:
        merged[-1] = points[-1]
    return merged


def reference_segment_on_cell(segments, starts, a, b):
    mid = 0.5 * (a + b)
    seg = segments[max(bisect.bisect_right(starts, mid) - 1, 0)]
    assert seg.x0 <= mid <= seg.x1
    return Segment(a, b, seg.value_at(max(a, seg.x0)), seg.value_at(min(b, seg.x1)))


def reference_combine(f, g, op):
    """``combine`` as it was, building a Segment per cell."""
    grid = reference_merged_grid(f, g)
    fs, gs = f.segments, g.segments
    f_starts, g_starts = [s.x0 for s in fs], [s.x0 for s in gs]
    segments = []
    for a, b in zip(grid, grid[1:]):
        sf = reference_segment_on_cell(fs, f_starts, a, b)
        sg = reference_segment_on_cell(gs, g_starts, a, b)
        segments.append(Segment(a, b, op(sf.y0, sg.y0), op(sf.y1, sg.y1)))
    return reference_function(segments)


def reference_envelope(f, g, take_max):
    """``max_envelope`` / ``min_envelope`` as they were."""
    grid = reference_merged_grid(f, g)
    fs, gs = f.segments, g.segments
    f_starts, g_starts = [s.x0 for s in fs], [s.x0 for s in gs]
    segments = []
    for a, b in zip(grid, grid[1:]):
        sf = reference_segment_on_cell(fs, f_starts, a, b)
        sg = reference_segment_on_cell(gs, g_starts, a, b)
        d0 = sf.y0 - sg.y0
        d1 = sf.y1 - sg.y1
        pick = (lambda u, v: max(u, v)) if take_max else (lambda u, v: min(u, v))
        if d0 * d1 < 0:
            t = d0 / (d0 - d1)
            x_cross = a + t * (b - a)
            y_cross = sf.value_at(x_cross) if abs(d0) < abs(d1) else sg.value_at(x_cross)
            if x_cross - a > MERGE_TOLERANCE and b - x_cross > MERGE_TOLERANCE:
                segments.append(Segment(a, x_cross, pick(sf.y0, sg.y0), y_cross))
                segments.append(Segment(x_cross, b, y_cross, pick(sf.y1, sg.y1)))
                continue
        segments.append(Segment(a, b, pick(sf.y0, sg.y0), pick(sf.y1, sg.y1)))
    return reference_function(segments)


def reference_algorithm1(
    f, q, max_preemptions, min_progress_fraction=1e-12, max_iterations=1_000_000
):
    """Algorithm 1's loop over the Segment-based queries above:
    ``(total, converged, preemptions, steps)``."""
    wcet = f.domain_end
    steps = []
    total = 0.0
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
        window_end = min(prog + q, wcet)
        lo, hi = max(prog, 0.0), min(window_end, wcet)
        p_cross = reference_first_meeting(f, lo, hi, prog + q)
        if p_cross is None:
            p_cross = window_end
        delay, p_max = reference_max_on(f, max(prog, 0.0), min(p_cross, wcet))
        if delay >= q - q * min_progress_fraction:
            return math.inf, False, len(steps), steps
        p_next = prog + q - delay
        total += delay
        steps.append(WindowStep(iteration, prog, p_cross, p_max, delay, p_next))
    preemptions = len(steps)
    if max_preemptions is not None and max_preemptions < len(steps):
        total = sum(sorted((s.delay for s in steps), reverse=True)[:max_preemptions])
        preemptions = max_preemptions
    return total, True, preemptions, steps


def step_bits(s: WindowStep) -> tuple:
    return (s.index, *(bits(v) for v in (s.prog, s.p_cross, s.p_max, s.delay, s.p_next)))


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

#: Ordinates that pass every check, with ties, zeros of both signs and
#: values whose sums overflow (the tuple check then looks piece by piece).
valid_values = st.sampled_from([0.0, -0.0, 1.0, -2.5, 7.0, 1e308, -1e308])
#: Values that fail a check wherever they land.
invalid_values = st.sampled_from([math.inf, -math.inf, math.nan])
#: Gaps between pieces around the contiguity tolerance, one ulp either side.
GAPS = [
    0.0,
    math.nextafter(TOLERANCE, 0.0),
    TOLERANCE,
    math.nextafter(TOLERANCE, math.inf),
    -math.nextafter(TOLERANCE, 0.0),
    -TOLERANCE,
    -math.nextafter(TOLERANCE, math.inf),
    2 * TOLERANCE,
]
gaps = st.sampled_from(GAPS)


def within_tolerance_of(base):
    """Abscissae ``base + gap`` for every in-tolerance gap, each pulled
    back toward ``base`` ulp by ulp until the gap still holds once the
    sum is rounded (``1.0 + 1e-9`` rounds past the tolerance)."""
    shifted = []
    for gap in GAPS:
        if abs(gap) <= TOLERANCE:
            x = base + gap
            while abs(x - base) > TOLERANCE:
                x = math.nextafter(x, base)
            shifted.append(x)
    return st.sampled_from(sorted(set(shifted)))


@st.composite
def coordinate_tuples(draw):
    """``(x0, x1, y0, y1)`` lists: contiguous pieces up to the gaps, with
    zero or more coordinates then replaced by zero widths, NaN or
    infinities."""
    pieces = draw(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), gaps),
                st.sampled_from([1.0, 0.25, 3e-10, 1e-9]),
                valid_values,
                valid_values,
            ),
            max_size=6,
        )
    )
    x0, x1, y0, y1 = [], [], [], []
    x = draw(st.sampled_from([0.0, -0.0, 5.0, -1e308]))
    for gap, width, ya, yb in pieces:
        start = x + gap if x0 else x
        x0.append(start)
        x1.append(start + width)
        y0.append(ya)
        y1.append(yb)
        x = start + width
    coordinates = [x0, x1, y0, y1]
    if x0:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            k = draw(st.integers(min_value=0, max_value=len(x0) - 1))
            column = draw(st.integers(min_value=0, max_value=3))
            if draw(st.booleans()):
                coordinates[column][k] = draw(invalid_values)
            else:  # a zero or negative width
                coordinates[1][k] = x0[k] - draw(st.sampled_from([0.0, 0.5]))
    return coordinates


@st.composite
def functions_on(draw, lo: float, hi: float, values):
    """A step or continuous piecewise-linear function on ``[lo, hi]``
    with ordinates drawn from ``values``."""
    cuts = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    knots = sorted({k for k in (lo + t * (hi - lo) for t in cuts) if lo < k < hi})
    xs = [lo, *knots, hi]
    if draw(st.booleans()):
        return step(xs, draw(st.lists(values, min_size=len(xs) - 1, max_size=len(xs) - 1)))
    ys = draw(st.lists(values, min_size=len(xs), max_size=len(xs)))
    return PiecewiseFunction(Segment(a, b, ya, yb) for (a, b), (ya, yb) in zip(pairwise(xs), pairwise(ys)))


class TestTupleStorageOracles:
    @given(coordinate_tuples())
    def test_tuple_constructor_matches_segments(self, coordinates):
        assert built(lambda: PiecewiseFunction._from_coordinates(*coordinates)) == built(
            lambda: reference_function([Segment(*piece) for piece in zip(*coordinates)])
        )

    @given(st.data())
    def test_combine_and_envelopes_match_segments(self, data):
        lo = data.draw(st.sampled_from([0.0, -0.0, -3.0]))
        hi = data.draw(st.sampled_from([1.0, 10.0, 1e-9]))
        values = st.one_of(tie_values, st.floats(-50.0, 50.0), st.sampled_from([1e308, -1e308]))
        f = data.draw(functions_on(lo, hi, values))
        g = data.draw(functions_on(lo, hi, values))
        for op in (operator.add, operator.sub, operator.mul):
            assert built(lambda: combine(f, g, op)) == built(lambda: reference_combine(f, g, op))
        assert built(lambda: max_envelope(f, g)) == built(
            lambda: reference_envelope(f, g, take_max=True)
        )
        assert built(lambda: min_envelope(f, g)) == built(
            lambda: reference_envelope(f, g, take_max=False)
        )

    # No deadline: a draw with Q just above max f on C = 333.3 charges
    # hundreds of windows in both kernels and can take over 200 ms.
    @settings(deadline=None)
    @given(
        st.data(),
        st.floats(min_value=0.5, max_value=60.0),
        st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    )
    def test_algorithm1_windows_match_segments(self, data, q, cap):
        wcet = data.draw(st.sampled_from([7.0, 50.0, 100.0, 333.3]))
        values = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 7.0]), st.floats(0.0, 40.0))
        f = data.draw(functions_on(0.0, wcet, values))
        bound = floating_npr_delay_bound(PreemptionDelayFunction(f), q, max_preemptions=cap)
        total, converged, preemptions, steps = reference_algorithm1(f, q, cap)
        assert (bits(bound.total_delay), bound.converged, bound.preemptions) == (
            bits(total),
            converged,
            preemptions,
        )
        assert [step_bits(s) for s in bound.steps] == [step_bits(s) for s in steps]

    def test_errors_keep_piece_order_across_cells(self):
        # The first cell's crossing value overflows (a bad piece); in the
        # second, t rounds to 1 and 1.11 + (3.22 - 1.11) lands one ulp
        # past 3.22, outside the cell.  The bad piece must raise first.
        f = PiecewiseFunction([Segment(0.0, 1.11, 1e308, -1e308), Segment(1.11, 3.22, 1.0, 0.0)])
        g = PiecewiseFunction([Segment(0.0, 1.11, 6e307, -4e307), Segment(1.11, 3.22, 0.0, 1e-300)])
        outcome = built(lambda: max_envelope(f, g))
        assert outcome == built(lambda: reference_envelope(f, g, take_max=True))
        assert outcome[1].startswith("segment coordinates must be finite")
        tail_f, tail_g = f.restricted(1.11, 3.22), g.restricted(1.11, 3.22)
        assert built(lambda: max_envelope(tail_f, tail_g)) == (
            "raised",
            "3.2200000000000006 outside segment [1.11, 3.22]",
        )


# ----------------------------------------------------------------------
# The single-pass Algorithm 1 kernel
# ----------------------------------------------------------------------


@st.composite
def grid_functions(draw):
    """Functions on an integer grid with integer ordinates, so the line
    ``D(x) = prog + Q - x`` meets pieces exactly at their ends and on
    jumps; some pieces start up to 1e-9 off the previous piece's end."""
    wcet = draw(st.sampled_from([20.0, 30.0, 47.0]))
    knots = draw(st.lists(st.integers(1, int(wcet) - 1), max_size=10, unique=True))
    xs = [0.0, *sorted(map(float, knots)), wcet]
    pieces = len(xs) - 1
    values = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 9.0, 12.0])
    y0 = draw(st.lists(values, min_size=pieces, max_size=pieces))
    y1 = draw(st.lists(values, min_size=pieces, max_size=pieces))
    if draw(st.booleans()):
        y1 = y0  # a step function
    shift = st.sampled_from([0.0, 0.0, 0.0, 5e-10, -5e-10, 9e-10, -9e-10])
    shifts = [0.0, *draw(st.lists(shift, min_size=pieces - 1, max_size=pieces - 1))]
    return PiecewiseFunction(
        Segment(xs[k] + shifts[k], xs[k + 1], y0[k], y1[k]) for k in range(pieces)
    )


def kernel_outcome(f, q, cap=None, max_iterations=1_000_000):
    """``floating_npr_delay_bound`` as comparable bits, or its message."""
    try:
        bound = floating_npr_delay_bound(
            PreemptionDelayFunction(f), q, max_preemptions=cap, max_iterations=max_iterations
        )
    except ValueError as error:
        return ("raised", str(error))
    return (
        bits(bound.total_delay),
        bound.converged,
        bound.preemptions,
        [step_bits(s) for s in bound.steps],
    )


def reference_outcome(f, q, cap=None, max_iterations=1_000_000):
    """The two-scan loop's result in :func:`kernel_outcome`'s shape."""
    try:
        total, converged, preemptions, steps = reference_algorithm1(
            f, q, cap, max_iterations=max_iterations
        )
    except ValueError as error:
        return ("raised", str(error))
    return (bits(total), converged, preemptions, [step_bits(s) for s in steps])


class TestSinglePassKernel:
    # No deadline: a draw with Q just above a constant f (Q = 2.00001
    # over f = 2 on C = 20) runs both loops into the 1,000,000-iteration
    # cap, about 20 s.
    @settings(deadline=None)
    @given(
        grid_functions(),
        st.one_of(st.integers(1, 15).map(float), st.floats(0.5, 15.0)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        st.sampled_from([1_000_000, 1, 3, 8]),
    )
    def test_every_window_matches_the_two_scan_loop(self, f, q, cap, max_iterations):
        assert kernel_outcome(f, q, cap, max_iterations) == reference_outcome(
            f, q, cap, max_iterations
        )

    def test_p_cross_on_a_jump_counts_the_next_pieces_point(self):
        # Window 1: prog = 10 and D(x) = 20 - x.  The piece on [12, 14]
        # (value 6) meets the line exactly at its end, so p∩ = 14, where
        # the next piece starts with value 9: that single point is the
        # window's maximum.
        f = step([0.0, 12.0, 14.0, 30.0], [1.0, 6.0, 9.0])
        assert kernel_outcome(f, 10.0) == reference_outcome(f, 10.0)
        bound = floating_npr_delay_bound(PreemptionDelayFunction(f), 10.0)
        assert bound.steps[0] == WindowStep(1, 10.0, 14.0, 14.0, 9.0, 11.0)

    def test_pieces_contiguous_only_within_the_tolerance(self):
        # The same shape with each jump moved off the previous piece's
        # end by less than the tolerance, both ways.
        for gap in (5e-10, -5e-10, 9e-10, -9e-10):
            f = PiecewiseFunction(
                [
                    Segment(0.0, 12.0, 1.0, 1.0),
                    Segment(12.0 + gap, 14.0, 6.0, 6.0),
                    Segment(14.0 + gap, 30.0, 9.0, 9.0),
                ]
            )
            for q in (10.0, 9.5, 11.0):
                for cap in (None, 1):
                    assert kernel_outcome(f, q, cap) == reference_outcome(f, q, cap)

    def test_divergence_at_the_first_window(self):
        f = step([0.0, 30.0], [10.0])
        assert kernel_outcome(f, 10.0) == reference_outcome(f, 10.0)
        bound = floating_npr_delay_bound(PreemptionDelayFunction(f), 10.0)
        assert (bound.total_delay, bound.converged, bound.preemptions) == (math.inf, False, 0)
        assert bound.steps == ()

    def test_iteration_cap_message(self):
        f = step([0.0, 100.0], [1.0])
        message = (
            "Algorithm 1 exceeded 5 iterations (C=100.0, Q=2.0); "
            "the bound is close to divergence"
        )
        assert kernel_outcome(f, 2.0, max_iterations=5) == ("raised", message)
        assert reference_outcome(f, 2.0, max_iterations=5) == ("raised", message)

    def test_bound_pickles_and_reads_its_trace_as_the_eager_steps(self):
        f = step([0.0, 12.0, 14.0, 30.0], [1.0, 6.0, 9.0])
        for cap in (None, 2):
            bound = floating_npr_delay_bound(PreemptionDelayFunction(f), 10.0, cap)
            copy = pickle.loads(pickle.dumps(bound))
            assert copy == bound
            assert hash(copy) == hash(bound)
            assert repr(copy) == repr(bound)
            assert copy.preemptions == bound.preemptions
            assert copy.inflated_wcet == bound.inflated_wcet
            assert isinstance(bound, FloatingNPRBound)
            assert "trace" not in repr(bound)
            _, _, _, eager = reference_algorithm1(f, 10.0, cap)
            assert isinstance(bound.steps, tuple)
            assert all(type(s) is WindowStep for s in bound.steps)
            assert [step_bits(s) for s in copy.steps] == [step_bits(s) for s in eager]
            assert bound.steps == tuple(eager)


# ----------------------------------------------------------------------
# Frozen context-build code
# ----------------------------------------------------------------------

REL_TOL = 1e-9


def reference_step_coordinates(fn, peak, lo, hi, knots) -> tuple:
    """``unimodal_upper_step`` as it was, with ``fn`` a closure called per
    knot and ``map(max, …)`` over neighbouring knots: the coordinates of
    the step function it built."""
    width = (hi - lo) / knots
    bounds = [lo + k * width for k in range(knots)] + [hi]
    ys = [fn(x) for x in bounds]
    values = list(map(max, ys, ys[1:]))
    first = max(bisect.bisect_left(bounds, peak) - 1, 0)
    last = min(bisect.bisect_right(bounds, peak), knots)
    y_peak = None
    for k in range(first, last):
        if bounds[k] <= peak <= bounds[k + 1]:
            if y_peak is None:
                y_peak = fn(peak)
            values[k] = max(ys[k], ys[k + 1], y_peak)
    return tuple(bounds[:-1]), tuple(bounds[1:]), tuple(values), tuple(values)


def reference_delay_factory(relative_height, knots=256, peak_fraction=0.5, relative_width=0.1):
    """``gaussian_delay_factory`` as it was: one ``bell`` closure per task."""

    def factory(task, rng):
        c = task.wcet
        mu = c * min(max(rng.gauss(peak_fraction, 0.1), 0.05), 0.95)
        sigma = relative_width * c
        height = relative_height * c

        def bell(t):
            return height * math.exp(-((t - mu) ** 2) / (2.0 * sigma**2))

        return reference_step_coordinates(bell, mu, 0.0, c, knots)

    return factory


def reference_task_set(n, utilization, seed, relative_height, knots) -> list[tuple]:
    """``generate_task_set(…).rate_monotonic()`` as it was, every task copy
    made by ``dataclasses.replace``: each task's fields and the
    coordinates of its delay function."""
    rng = random.Random(seed)
    factory = reference_delay_factory(relative_height, knots)
    tasks = []
    for i, u in enumerate(uunifast_discard(n, utilization, rng)):
        period = log_uniform_period(rng, 10.0, 1000.0)
        wcet = max(u * period, 1e-6)
        task = Task(name=f"tau{i + 1}", wcet=wcet, period=period, deadline=period)
        coordinates = factory(task, rng)
        f = PreemptionDelayFunction(PiecewiseFunction._from_coordinates(*coordinates))
        tasks.append(dataclasses.replace(task, delay_function=f))
    ordered = sorted(tasks, key=lambda t: (t.period, t.name))
    return [task_bits(dataclasses.replace(t, priority=i + 1)) for i, t in enumerate(ordered)]


def task_bits(task: Task) -> tuple:
    f = task.delay_function
    return (
        task.name,
        bits(task.wcet),
        bits(task.period),
        bits(task.deadline),
        bits(task.npr_length),
        task.priority,
        None if f is None else function_bits(f.function),
    )


def reference_testing_set(tasks, i):
    deadline = tasks[i].deadline
    points = {deadline}
    for j in range(i):
        period = tasks[j].period
        limit = deadline * (1.0 + REL_TOL)
        k = 1
        while k * period <= limit:
            points.add(min(k * period, deadline))
            k += 1
    return sorted(points)


def reference_level_i_workload(tasks, i, t):
    total = tasks[i].wcet
    for j in range(i):
        total += math.ceil((t / tasks[j].period) * (1.0 - REL_TOL)) * tasks[j].wcet
    return total


def reference_blocking_tolerances(tasks) -> dict:
    """``fp_blocking_tolerances`` as it was: two calls per testing point."""
    ordered = list(tasks.sorted_by_priority())
    result = {}
    for i, task in enumerate(ordered):
        best = -math.inf
        for t in reference_testing_set(ordered, i):
            best = max(best, t - reference_level_i_workload(ordered, i, t))
        result[task.name] = best
    return result


def reference_value_on(x0, x1, y0, y1, x):
    if x == x0:
        return y0
    if x == x1:
        return y1
    ratio = (x - x0) / (x1 - x0)
    return y0 + ratio * (y1 - y0)


def reference_cell(fn, a, b):
    """``_segment_on_cell`` as it was: the piece holding the cell's
    midpoint, found by binary search."""
    x0s, x1s, y0s, y1s = fn.coordinates
    mid = 0.5 * (a + b)
    idx = max(bisect.bisect_right(x0s, mid) - 1, 0)
    x0, x1, y0, y1 = x0s[idx], x1s[idx], y0s[idx], y1s[idx]
    assert x0 <= mid <= x1
    v0 = reference_value_on(x0, x1, y0, y1, max(a, x0))
    v1 = reference_value_on(x0, x1, y0, y1, min(b, x1))
    if not math.isfinite(v0 + v1):
        Segment(a, b, v0, v1)
    return v0, v1


def reference_cell_envelope(f, g, take_max):
    """``max_envelope`` / ``min_envelope`` as they were: a search per cell."""
    grid = reference_merged_grid(f, g)
    pick = max if take_max else min
    x0s, x1s, y0s, y1s = [], [], [], []

    def check_pieces():
        for piece in zip(x0s, x1s, y0s, y1s):
            Segment(*piece)

    for a, b in zip(grid, grid[1:]):
        try:
            f0, f1 = reference_cell(f, a, b)
            g0, g1 = reference_cell(g, a, b)
        except ValueError:
            check_pieces()
            raise
        d0 = f0 - g0
        d1 = f1 - g1
        if d0 * d1 < 0:
            t = d0 / (d0 - d1)
            x_cross = a + t * (b - a)
            if not a <= x_cross <= b:
                check_pieces()
                raise ValueError(f"{x_cross} outside segment [{a}, {b}]")
            y_a, y_b = (f0, f1) if abs(d0) < abs(d1) else (g0, g1)
            y_cross = reference_value_on(a, b, y_a, y_b, x_cross)
            if x_cross - a > MERGE_TOLERANCE and b - x_cross > MERGE_TOLERANCE:
                x0s += (a, x_cross)
                x1s += (x_cross, b)
                y0s += (pick(f0, g0), y_cross)
                y1s += (y_cross, pick(f1, g1))
                continue
        x0s.append(a)
        x1s.append(b)
        y0s.append(pick(f0, g0))
        y1s.append(pick(f1, g1))
    return PiecewiseFunction._from_coordinates(x0s, x1s, y0s, y1s)


def reference_step(bounds, values):
    """``step`` as it was: the grid check before the constructor's."""
    if not len(bounds) == len(values) + 1:
        raise ValueError("need len(bounds) == len(values) + 1")
    if not len(values) >= 1:
        raise ValueError("need at least one interval")
    if not all(map(operator.lt, bounds, bounds[1:])):
        raise ValueError("bounds must be strictly increasing")
    values = tuple(values)
    return PiecewiseFunction._from_coordinates(bounds[:-1], bounds[1:], values, values)


def reference_fig4(name, interpretation, knots):
    """``fig4_delay_function`` as it was: closures through the per-knot
    loop, and the two-bell function through the per-cell envelope."""
    wcet, top = 4000.0, 10.0
    mid = wcet / 2.0
    s1, s2 = (300.0**2, 3000.0**2) if interpretation == "sigma" else (300.0, 3000.0)

    def bell(mu, sigma2, amplitude, offset):
        def fn(t):
            return offset + amplitude * math.exp(-((t - mu) ** 2) / (2.0 * sigma2))

        return PiecewiseFunction._from_coordinates(
            *reference_step_coordinates(fn, mu, 0.0, wcet, knots)
        )

    if name == "gaussian1":
        if interpretation == "offset10":
            return bell(mid, s1, top / 2, top / 2)
        return bell(mid, s1, top, 0.0)
    if name == "gaussian2":
        return bell(mid, s2, top, 0.0)
    left = bell(0.3 * wcet, s2, top, 0.0)
    right = bell(0.7 * wcet, s2, 0.8 * top, 0.0)
    return reference_cell_envelope(left, right, take_max=True)


# ----------------------------------------------------------------------
# Properties of the context build
# ----------------------------------------------------------------------


def one_ulp_cells(x: float, count: int) -> list[float]:
    """``count`` consecutive one-ulp cells from ``x`` on."""
    points = [x]
    for _ in range(count):
        points.append(math.nextafter(points[-1], math.inf))
    return points


@st.composite
def shared_grids(draw):
    """A strictly increasing grid: plain cells, cells around the merge
    tolerance, and runs of one-ulp cells above 8192 (wide enough to
    survive the merge; every other one has its midpoint round onto its
    right end) or below it (merged away)."""
    start = draw(st.sampled_from([0.0, -0.0, -3.0, 8192.0, 10000.0, 4500.0]))
    points = [start]
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        kind = draw(st.sampled_from(["plain", "plain", "tolerance", "ulp"]))
        x = points[-1]
        if kind == "plain":
            points.append(x + draw(st.sampled_from([0.5, 1.0, 2.5])))
        elif kind == "tolerance":
            points.append(x + draw(st.sampled_from([5e-13, 1e-12, 2e-12])))
        else:
            points.extend(one_ulp_cells(x, draw(st.integers(1, 3)))[1:])
    grid = [p for k, p in enumerate(points) if k == 0 or p > points[k - 1]]
    assume(len(grid) >= 2)  # a step below one ulp leaves the grid a point
    return grid


@st.composite
def functions_on_grid(draw, grid, shifts):
    """A step or continuous function on ``grid``, its pieces moved off
    the previous piece's end by ``shifts``, with tie-rich ordinates."""
    pieces = len(grid) - 1
    values = st.one_of(tie_values, st.floats(-5.0, 5.0))
    y0 = draw(st.lists(values, min_size=pieces, max_size=pieces))
    y1 = y0 if draw(st.booleans()) else draw(st.lists(values, min_size=pieces, max_size=pieces))
    x0 = [grid[k] + shifts[k] for k in range(pieces)]
    try:
        return PiecewiseFunction._from_coordinates(x0, grid[1:], y0, y1)
    except ValueError:  # a shift past a narrow piece's end
        assume(False)


class TestContextBuildOracles:
    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(min_value=1, max_value=8),
        utilization=st.sampled_from([0.1, 0.3, 0.65, 0.9, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32),
        height=st.sampled_from([0.01, 0.05, 0.3]),
        knots=st.sampled_from([1, 2, 7, 64, 256]),
    )
    def test_generated_task_sets_match(self, n, utilization, seed, height, knots):
        factory = gaussian_delay_factory(relative_height=height, knots=knots)
        tasks = generate_task_set(n, utilization, seed=seed, delay_function_factory=factory)
        built_set = tasks.rate_monotonic()
        assert [task_bits(t) for t in built_set] == reference_task_set(
            n, utilization, seed, height, knots
        )
        for task in built_set:
            f = task.delay_function.function
            assert bits(task.delay_function.max_value()) == bits(f.max_on(*f.domain)[0])
        assert fp_blocking_tolerances(built_set) == reference_blocking_tolerances(built_set)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.1, 0.2, 0.25, 0.7, 1.4, 2.1, 3.0, 7.0, 10.0, 33.3]),
                st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.1]),
                st.sampled_from([None, 0.3, 0.9, 2.1]),
            ),
            min_size=1,
            max_size=6,
        ),
        st.booleans(),
    )
    def test_blocking_tolerances_match(self, specs, deadline_monotonic):
        tasks = []
        for k, (period, wcet, deadline) in enumerate(specs):
            deadline = period if deadline is None else min(deadline, period)
            tasks.append(Task(f"t{k}", wcet * period, period, deadline))
        ts = TaskSet(tasks)
        ts = ts.deadline_monotonic() if deadline_monotonic else ts.rate_monotonic()
        assert {k: bits(v) for k, v in fp_blocking_tolerances(ts).items()} == {
            k: bits(v) for k, v in reference_blocking_tolerances(ts).items()
        }

    def test_blocking_tolerance_snaps_a_multiple_one_ulp_above(self):
        # 2.1 / 0.7 rounds to 3.0000000000000004: the relative tolerance
        # must snap it to 3 in the inlined loop as in the old one.
        ts = TaskSet([Task("hp", 0.25, 0.7), Task("lo", 0.5, 2.1)]).rate_monotonic()
        assert fp_blocking_tolerances(ts) == reference_blocking_tolerances(ts)
        assert fp_blocking_tolerances(ts)["lo"] == 2.1 - (0.5 + 3 * 0.25)

    def test_task_copies_validate_the_changed_field(self):
        f = PreemptionDelayFunction(step([0.0, 1.0, 2.0], [1.0, 0.5]))
        task = Task("t", 2.0, 10.0)
        for copy, reference in [
            (task.with_delay_function(f), dataclasses.replace(task, delay_function=f)),
            (task.with_priority(3), dataclasses.replace(task, priority=3)),
            (task.with_npr_length(1.5), dataclasses.replace(task, npr_length=1.5)),
            (task.with_npr_length(None), dataclasses.replace(task, npr_length=None)),
        ]:
            assert task_bits(copy) == task_bits(reference)
            assert copy == reference and hash(copy) == hash(reference)
        for bad in (0.0, -1.0, math.nan, math.inf):
            assert outcome(lambda: task.with_npr_length(bad)) == outcome(
                lambda: dataclasses.replace(task, npr_length=bad)
            )
        short = PreemptionDelayFunction(step([0.0, 1.0], [1.0]))
        assert outcome(lambda: task.with_delay_function(short)) == outcome(
            lambda: dataclasses.replace(task, delay_function=short)
        )

    @settings(deadline=None)
    @given(
        mu=st.floats(min_value=-50.0, max_value=150.0),
        sigma2=st.sampled_from([1e-3, 0.5, 30.0, 3000.0]),
        amplitude=st.sampled_from([0.0, 1e-300, 0.8, 10.0]),
        offset=st.sampled_from([0.0, -0.0, 5.0]),
        knots=st.integers(min_value=1, max_value=40),
    )
    def test_gaussian_upper_step_matches_the_closure(self, mu, sigma2, amplitude, offset, knots):
        def fn(t):
            return offset + amplitude * math.exp(-((t - mu) ** 2) / (2.0 * sigma2))

        assert function_bits(
            gaussian_upper_step(mu, sigma2, amplitude, 0.0, 100.0, knots, offset=offset)
        ) == function_bits(
            PiecewiseFunction._from_coordinates(
                *reference_step_coordinates(fn, mu, 0.0, 100.0, knots)
            )
        )

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=2, max_size=12), st.data())
    def test_unimodal_upper_step_keeps_the_first_of_equal_knot_values(self, table, data):
        # Knot values of equal size but other bits (0.0 and -0.0), away
        # from the peak as well as around it.
        knots = len(table) - 1
        peak = data.draw(st.sampled_from([-1.0, 0.5, 2.0, float(knots) + 1.0]))

        def fn(x):
            return table[min(max(int(x), 0), knots)]

        assert function_bits(unimodal_upper_step(fn, peak, 0.0, float(knots), knots)) == (
            function_bits(
                PiecewiseFunction._from_coordinates(
                    *reference_step_coordinates(fn, peak, 0.0, float(knots), knots)
                )
            )
        )

    def test_figure4_functions_match(self):
        for name in FIG4_NAMES:
            for interpretation in INTERPRETATIONS:
                for knots in (1, 7, 64, 1024):
                    f = fig4_delay_function(name, interpretation, knots).function
                    assert function_bits(f) == function_bits(
                        reference_fig4(name, interpretation, knots)
                    )

    @given(
        st.lists(st.one_of(tie_values, st.integers(-2, 2)), min_size=1, max_size=10),
        st.lists(st.one_of(tie_values, st.integers(-2, 2)), min_size=1, max_size=10),
        st.booleans(),
    )
    def test_max_value_reads_ties_as_the_walk(self, y0, y1, shared):
        # Equal values of different bits (0.0 and -0.0, 1 and 1.0): the
        # first the walk meets must win, in y0[k], y1[k], y0[k + 1] order.
        pieces = min(len(y0), len(y1))
        y0 = tuple(y0[:pieces])
        y1 = y0 if shared else tuple(y1[:pieces])
        xs = [float(k) for k in range(pieces + 1)]
        f = PiecewiseFunction._from_coordinates(xs[:-1], xs[1:], y0, y1)
        value = f.max_value()
        assert (type(value), bits(value)) == (
            type(reference_max_on(f, *f.domain)[0]),
            bits(reference_max_on(f, *f.domain)[0]),
        )

    def test_signed_zero_maxima(self):
        for y0, y1 in [
            ((-0.0, 0.0), (0.0, -0.0)),
            ((0.0, -0.0), (-0.0, 0.0)),
            ((-0.0, -1.0), (0.0, -0.0)),
            ((-1.0, 0.0), (-0.0, -0.0)),
        ]:
            for f in (
                PiecewiseFunction._from_coordinates((0.0, 1.0), (1.0, 2.0), y0, y1),
                PiecewiseFunction._from_coordinates((0.0, 1.0), (1.0, 2.0), y0, y0),
            ):
                assert bits(f.max_value()) == bits(reference_max_on(f, *f.domain)[0])

    @given(st.data())
    def test_max_value_of_pieces_contiguous_within_the_tolerance(self, data):
        starts = [0.0, *(data.draw(within_tolerance_of(x)) for x in (1.0, 2.0))]
        ys = data.draw(st.lists(tie_values, min_size=3, max_size=3))
        f = PiecewiseFunction._from_coordinates(starts, [1.0, 2.0, 3.0], ys, ys)
        assert bits(f.max_value()) == bits(reference_max_on(f, *f.domain)[0])

    @given(st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.0, -1.0, math.nan, math.inf, 3]), max_size=5),
           st.lists(st.sampled_from([0.0, -0.0, 1.0, math.nan, -math.inf, 2]), max_size=4))
    def test_step_checks_in_the_same_order(self, bounds, values):
        assert built(lambda: step(bounds, values)) == built(lambda: reference_step(bounds, values))

    @given(coordinate_tuples())
    def test_shared_ordinate_tuple_constructor_matches_segments(self, coordinates):
        x0, x1, y0, _ = coordinates
        y0 = tuple(y0)
        assert built(lambda: PiecewiseFunction._from_coordinates(x0, x1, y0, y0)) == built(
            lambda: reference_function([Segment(*piece) for piece in zip(x0, x1, y0, y0)])
        )

    @given(shared_grids(), st.data())
    def test_shared_grid_envelopes_match_the_cell_loop(self, grid, data):
        pieces = len(grid) - 1
        shift = st.sampled_from([0.0, 0.0, 0.0, 4e-10, -4e-10])
        shifts = [0.0, *data.draw(st.lists(shift, min_size=pieces - 1, max_size=pieces - 1))]
        f = data.draw(functions_on_grid(grid, shifts))
        g = data.draw(functions_on_grid(grid, shifts))
        for take_max, envelope in ((True, max_envelope), (False, min_envelope)):
            expected = built(lambda: reference_cell_envelope(f, g, take_max))
            assert built(lambda: envelope(f, g)) == expected
            assert expected == built(lambda: reference_envelope(f, g, take_max))

    def test_one_ulp_cell_reads_the_next_piece(self):
        # From 10000 + 1 ulp (an odd mantissa) a one-ulp cell's midpoint
        # rounds onto its right end: the search lands on the next piece.
        grid = [0.0, *one_ulp_cells(math.nextafter(10000.0, math.inf), 3), 10001.0]
        assert 0.5 * (grid[1] + grid[2]) == grid[2]
        f = step(grid, [1.0, 2.0, 3.0, 4.0, 5.0])
        g = step(grid, [5.0, 4.0, -0.0, 0.0, 1.0])
        for envelope, take_max in ((max_envelope, True), (min_envelope, False)):
            result = envelope(f, g)
            assert function_bits(result) == function_bits(reference_cell_envelope(f, g, take_max))
        assert max_envelope(f, g).coordinates[2][1] == 3.0  # cell 1 reads piece 2
