"""Bit-identity of the piecewise layer's shortcuts with the loops they
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
"""

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.piecewise import PiecewiseFunction, Segment, step, unimodal_upper_step
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
