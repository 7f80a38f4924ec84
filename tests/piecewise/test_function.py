"""Unit and property tests for PiecewiseFunction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from tests.conftest import continuous_pwl, step_function

from repro.piecewise import (
    PiecewiseFunction,
    Segment,
    constant,
    from_points,
    step,
)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseFunction([])

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseFunction(
                [Segment(0.0, 1.0, 0.0, 0.0), Segment(2.0, 3.0, 0.0, 0.0)]
            )

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseFunction(
                [Segment(0.0, 2.0, 0.0, 0.0), Segment(1.0, 3.0, 0.0, 0.0)]
            )

    def test_domain(self):
        f = step([0.0, 1.0, 5.0], [2.0, 3.0])
        assert f.domain == (0.0, 5.0)

    def test_equality_and_hash(self):
        f = step([0.0, 1.0], [2.0])
        g = step([0.0, 1.0], [2.0])
        assert f == g
        assert hash(f) == hash(g)


class TestEvaluation:
    def test_constant(self):
        f = constant(4.0, 0.0, 10.0)
        assert f.value(0.0) == 4.0
        assert f.value(5.5) == 4.0
        assert f.value(10.0) == 4.0

    def test_linear_interpolation(self):
        f = from_points([0.0, 10.0], [0.0, 5.0])
        assert f.value(4.0) == pytest.approx(2.0)

    def test_jump_takes_maximum_of_sides(self):
        f = step([0.0, 1.0, 2.0], [1.0, 9.0])
        assert f.value(1.0) == 9.0
        f = step([0.0, 1.0, 2.0], [9.0, 1.0])
        assert f.value(1.0) == 9.0

    def test_outside_domain_raises(self):
        f = constant(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            f.value(-0.1)
        with pytest.raises(ValueError):
            f.value(1.1)

    def test_nan_rejected(self):
        f = from_points([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match=r"^nan outside domain \[0\.0, 1\.0\]$"):
            f.value(float("nan"))

    def test_callable_protocol(self):
        f = constant(3.0, 0.0, 1.0)
        assert f(0.5) == 3.0


class TestMaxOn:
    def test_across_jump(self):
        f = step([0.0, 5.0, 10.0], [2.0, 8.0])
        value, arg = f.max_on(0.0, 10.0)
        assert value == 8.0
        assert arg == 5.0

    def test_leftmost_argmax_on_plateau(self):
        f = step([0.0, 2.0, 4.0, 6.0], [1.0, 7.0, 7.0])
        value, arg = f.max_on(0.0, 6.0)
        assert value == 7.0
        assert arg == 2.0

    def test_interval_restriction(self):
        f = from_points([0.0, 5.0, 10.0], [0.0, 10.0, 0.0])
        value, arg = f.max_on(6.0, 10.0)
        assert value == pytest.approx(8.0)
        assert arg == 6.0

    def test_point_interval(self):
        f = from_points([0.0, 10.0], [0.0, 10.0])
        value, arg = f.max_on(4.0, 4.0)
        assert value == pytest.approx(4.0)
        assert arg == 4.0

    @given(f=continuous_pwl(), data=st.data())
    def test_max_dominates_samples(self, f, data):
        lo, hi = f.domain
        a = data.draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
        b = data.draw(st.floats(min_value=a, max_value=hi, allow_nan=False))
        value, arg = f.max_on(a, b)
        assert a <= arg <= b
        assert f.value(arg) == pytest.approx(value)
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            x = a + (b - a) * frac
            assert f.value(x) <= value + 1e-9

    @given(f=step_function())
    def test_global_max_is_max_of_plateaus(self, f):
        assert f.max_value() == max(s.y0 for s in f.segments)


class TestMinOn:
    def test_basic(self):
        f = from_points([0.0, 5.0, 10.0], [4.0, 0.0, 4.0])
        value, arg = f.min_on(0.0, 10.0)
        assert value == pytest.approx(0.0)
        assert arg == pytest.approx(5.0)


class TestDescendingLine:
    def test_no_meeting(self):
        f = constant(0.0, 0.0, 4.0)
        assert f.first_meeting_with_descending_line(0.0, 4.0, 100.0) is None

    def test_step_jump_across_line(self):
        # f = 0 on [0, 5), jumps to 9 on [5, 10]; D(x) = 8 - x passes
        # through (5, 3): f jumps across the line at x = 5.
        f = step([0.0, 5.0, 10.0], [0.0, 9.0])
        meeting = f.first_meeting_with_descending_line(0.0, 10.0, 8.0)
        assert meeting == 5.0

    def test_continuous_crossing(self):
        f = from_points([0.0, 10.0], [0.0, 10.0])
        meeting = f.first_meeting_with_descending_line(0.0, 10.0, 10.0)
        assert meeting == pytest.approx(5.0)

    def test_line_touches_zero_function_at_end(self):
        f = constant(0.0, 0.0, 10.0)
        meeting = f.first_meeting_with_descending_line(0.0, 10.0, 10.0)
        assert meeting == pytest.approx(10.0)

    @given(f=continuous_pwl(), data=st.data())
    def test_meeting_is_leftmost(self, f, data):
        lo, hi = f.domain
        c = data.draw(st.floats(min_value=lo, max_value=hi + 50, allow_nan=False))
        meeting = f.first_meeting_with_descending_line(lo, hi, c)
        if meeting is None:
            # f stays strictly below the line on a probe grid.
            for frac in range(11):
                x = lo + (hi - lo) * frac / 10
                assert f.value(x) < (c - x) + 1e-6
        else:
            assert f.value(meeting) >= (c - meeting) - 1e-6
            # No earlier meeting on a probe grid strictly left of it.
            for frac in range(10):
                x = lo + (meeting - lo) * frac / 10
                if x < meeting - 1e-9:
                    assert f.value(x) < (c - x) + 1e-6


class TestTransformsAndIntegral:
    def test_integral_triangle(self):
        f = from_points([0.0, 10.0], [0.0, 10.0])
        assert f.integral() == pytest.approx(50.0)

    def test_integral_step(self):
        f = step([0.0, 2.0, 5.0], [3.0, 1.0])
        assert f.integral() == pytest.approx(2 * 3 + 3 * 1)

    def test_shift(self):
        f = constant(1.0, 0.0, 2.0).shifted(dx=5.0, dy=2.0)
        assert f.domain == (5.0, 7.0)
        assert f.value(6.0) == 3.0

    def test_scale_rejects_negative(self):
        with pytest.raises(ValueError):
            constant(1.0, 0.0, 1.0).scaled(-1.0)

    def test_restricted(self):
        f = from_points([0.0, 10.0], [0.0, 10.0]).restricted(2.0, 4.0)
        assert f.domain == (2.0, 4.0)
        assert f.value(3.0) == pytest.approx(3.0)

    def test_restricted_outside_raises(self):
        with pytest.raises(ValueError):
            constant(0.0, 0.0, 1.0).restricted(0.0, 2.0)

    def test_breakpoints(self):
        f = step([0.0, 1.0, 4.0], [1.0, 2.0])
        assert f.breakpoints() == [0.0, 1.0, 4.0]

    def test_sample(self):
        f = from_points([0.0, 4.0], [0.0, 4.0])
        assert [f.value(x) for x in (0.0, 2.0, 4.0)] == [0.0, 2.0, 4.0]

    def test_is_non_negative(self):
        assert constant(0.0, 0.0, 1.0).is_non_negative()
        assert not from_points([0.0, 1.0], [1.0, -1.0]).is_non_negative()
