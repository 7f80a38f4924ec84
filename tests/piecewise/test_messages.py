"""Exact validation messages of the piecewise layer, and a guard that the
success path never formats them.

The checks in :mod:`repro.piecewise.segments` and
:mod:`repro.piecewise.function` raise ``ValueError`` with messages built
only when the check fails.  These tests pin each message's text, probe
the edges where the checks flip (jumps, contiguity gaps one ulp either
side of the tolerance, domain endpoints) and count ``Segment.__repr__``
calls over real workloads: a message formatted on the success path shows
up there as a nonzero count, whatever the host speed.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    BoundScenario,
    StudyScenario,
    clear_context_cache,
    evaluate_bound_scenario,
    evaluate_study_scenario,
)
from repro.core import PreemptionDelayFunction, floating_npr_delay_bound
from repro.engine.context import TaskSetKey, build_context
from repro.npr.assignment import apply_npr_lengths, assign_npr_lengths
from repro.npr.qmax_fp import fp_max_npr_lengths
from repro.piecewise import PiecewiseFunction, Segment, add, constant, step
from repro.sched.crpd_rta import delay_aware_rta
from repro.sched.rta import response_time
from repro.tasks import Task, TaskSet
from repro.utils.checks import require_non_negative, require_positive

TOLERANCE = 1e-9

coordinates = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def message(excinfo: pytest.ExceptionInfo) -> str:
    return str(excinfo.value)


class TestSegmentMessages:
    @pytest.mark.parametrize(
        "coords, shown",
        [
            ((0.0, 1.0, math.nan, 0.0), "Segment(x0=0.0, x1=1.0, y0=nan, y1=0.0)"),
            ((0.0, math.inf, 0.0, 0.0), "Segment(x0=0.0, x1=inf, y0=0.0, y1=0.0)"),
            ((-math.inf, 1.0, 0.0, 0.0), "Segment(x0=-inf, x1=1.0, y0=0.0, y1=0.0)"),
            ((0.0, 1.0, 0.0, -math.inf), "Segment(x0=0.0, x1=1.0, y0=0.0, y1=-inf)"),
        ],
    )
    def test_non_finite_coordinate(self, coords, shown):
        with pytest.raises(ValueError) as excinfo:
            Segment(*coords)
        assert message(excinfo) == f"segment coordinates must be finite, got {shown}"

    def test_zero_width(self):
        with pytest.raises(ValueError) as excinfo:
            Segment(1.0, 1.0, 0.0, 0.0)
        assert message(excinfo) == (
            "segment must have positive width, got "
            "Segment(x0=1.0, x1=1.0, y0=0.0, y1=0.0)"
        )

    def test_negative_width(self):
        with pytest.raises(ValueError) as excinfo:
            Segment(2.0, 1.0, 5.0, 6.0)
        assert message(excinfo) == (
            "segment must have positive width, got "
            "Segment(x0=2.0, x1=1.0, y0=5.0, y1=6.0)"
        )

    def test_non_finite_is_checked_before_width(self):
        with pytest.raises(ValueError) as excinfo:
            Segment(1.0, 1.0, math.nan, 0.0)
        assert message(excinfo).startswith("segment coordinates must be finite")

    @pytest.mark.parametrize("x", [0.5, 3.5, math.nextafter(1.0, -math.inf), math.nan])
    def test_value_at_outside(self, x):
        with pytest.raises(ValueError) as excinfo:
            Segment(1.0, 3.0, 0.0, 2.0).value_at(x)
        assert message(excinfo) == f"{x} outside segment [1.0, 3.0]"

    @pytest.mark.parametrize("method", ["max_on", "min_on"])
    def test_empty_intersection(self, method):
        seg = Segment(1.0, 3.0, 0.0, 2.0)
        with pytest.raises(ValueError) as excinfo:
            getattr(seg, method)(4.0, 5.0)
        assert message(excinfo) == (
            "empty intersection of [4.0, 3.0] with "
            "Segment(x0=1.0, x1=3.0, y0=0.0, y1=2.0)"
        )

    @pytest.mark.parametrize(
        "lo, hi, shown", [(2.0, 2.0, "[2.0, 2.0]"), (0.0, 1.0, "[1.0, 1.0]")]
    )
    def test_clipped_without_width(self, lo, hi, shown):
        with pytest.raises(ValueError) as excinfo:
            Segment(1.0, 3.0, 0.0, 2.0).clipped(lo, hi)
        assert message(excinfo) == (
            f"clip {shown} leaves no width in Segment(x0=1.0, x1=3.0, y0=0.0, y1=2.0)"
        )

    @given(x0=coordinates, width=st.floats(min_value=1e-3, max_value=1e3), y=coordinates)
    def test_value_at_just_outside_either_end(self, x0, width, y):
        seg = Segment(x0, x0 + width, y, y)
        for x in (math.nextafter(seg.x0, -math.inf), math.nextafter(seg.x1, math.inf)):
            with pytest.raises(ValueError) as excinfo:
                seg.value_at(x)
            assert message(excinfo) == f"{x} outside segment [{seg.x0}, {seg.x1}]"
        assert seg.value_at(seg.x0) == y
        assert seg.value_at(seg.x1) == y


class TestFunctionMessages:
    def test_non_contiguous(self):
        left = Segment(0.0, 1.0, 0.0, 0.0)
        right = Segment(1.5, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError) as excinfo:
            PiecewiseFunction([left, right])
        assert message(excinfo) == (
            "segments must be contiguous: Segment(x0=0.0, x1=1.0, y0=0.0, y1=0.0) "
            "then Segment(x0=1.5, x1=2.0, y0=1.0, y1=1.0)"
        )

    def test_empty(self):
        with pytest.raises(ValueError) as excinfo:
            PiecewiseFunction([])
        assert message(excinfo) == "a piecewise function needs at least one segment"

    @pytest.mark.parametrize(
        "gap, accepted",
        [
            (math.nextafter(TOLERANCE, 0.0), True),
            (TOLERANCE, True),
            (math.nextafter(TOLERANCE, math.inf), False),
        ],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_contiguity_gap_at_the_tolerance(self, gap, accepted, sign):
        left = Segment(-1.0, 0.0, 2.0, 2.0)
        right = Segment(sign * gap, 1.0, 3.0, 3.0)
        if accepted:
            assert len(PiecewiseFunction([left, right])) == 2
            return
        with pytest.raises(ValueError) as excinfo:
            PiecewiseFunction([left, right])
        assert message(excinfo) == f"segments must be contiguous: {left!r} then {right!r}"

    @given(
        x=coordinates,
        gap=st.sampled_from(
            [
                0.0,
                math.nextafter(TOLERANCE, 0.0),
                TOLERANCE,
                math.nextafter(TOLERANCE, math.inf),
                2 * TOLERANCE,
            ]
        ),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_contiguity_follows_the_computed_gap(self, x, gap, sign):
        left = Segment(x - 1.0, x, 0.0, 1.0)
        right = Segment(x + sign * gap, x + 2.0, 5.0, 5.0)
        if abs(left.x1 - right.x0) <= TOLERANCE:
            PiecewiseFunction([left, right])
        else:
            with pytest.raises(ValueError) as excinfo:
                PiecewiseFunction([left, right])
            assert message(excinfo) == (
                f"segments must be contiguous: {left!r} then {right!r}"
            )

    def test_domain_messages(self):
        f = step([0.0, 1.0, 2.0], [3.0, 1.0])
        cases = [
            (lambda: f.value(2.5), "2.5 outside domain [0.0, 2.0]"),
            (lambda: f.max_on(-1.0, 1.0), "[-1.0, 1.0] outside domain [0.0, 2.0]"),
            (lambda: f.min_on(1.5, 1.0), "[1.5, 1.0] outside domain [0.0, 2.0]"),
            (
                lambda: f.first_meeting_with_descending_line(0.0, 3.0, 1.0),
                "[0.0, 3.0] outside domain [0.0, 2.0]",
            ),
            (lambda: f.scaled(-0.5), "scale factor must be non-negative, got -0.5"),
            (lambda: f.restricted(1.0, 1.0), "[1.0, 1.0] not inside [0.0, 2.0]"),
        ]
        for call, text in cases:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert message(excinfo) == text

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=9).map(float), min_size=2, max_size=6
        )
    )
    @settings(max_examples=50)
    def test_step_queries_at_jumps_and_endpoints(self, values):
        bounds = [float(k) for k in range(len(values) + 1)]
        f = step(bounds, values)
        lo, hi = f.domain
        # Endpoints evaluate without error; interior jumps take the max of
        # both one-sided limits.
        assert f.value(lo) == values[0]
        assert f.value(hi) == values[-1]
        for k in range(1, len(values)):
            assert f.value(bounds[k]) == max(values[k - 1], values[k])
        assert f.max_on(lo, hi)[0] == max(values)
        assert f.min_on(hi, hi) == (values[-1], hi)
        for x in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            with pytest.raises(ValueError) as excinfo:
                f.value(x)
            assert message(excinfo) == f"{x} outside domain [{lo}, {hi}]"
            with pytest.raises(ValueError) as excinfo:
                f.max_on(min(x, lo), max(x, hi))
            assert message(excinfo) == (
                f"[{min(x, lo)}, {max(x, hi)}] outside domain [{lo}, {hi}]"
            )


class TestPerScenarioCheckMessages:
    """Checks that run for every scenario build their message only when
    they fail; the text is the one they always had."""

    def test_builder_and_operation_messages(self):
        cases = [
            (lambda: constant(1.0, 2.0, 2.0), "domain must have positive width, got [2.0, 2.0]"),
            (
                lambda: add(constant(1.0, 0.0, 1.0), constant(1.0, 0.0, 2.0)),
                "domains differ: (0.0, 1.0) vs (0.0, 2.0)",
            ),
            (
                lambda: PreemptionDelayFunction(constant(1.0, 0.5, 2.0)),
                "f_i must be defined from progression 0, domain is (0.5, 2.0)",
            ),
        ]
        for call, text in cases:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert message(excinfo) == text

    @pytest.mark.parametrize(
        "fields, text",
        [
            ({"wcet": 0.0}, "t1.wcet must be a finite positive number, got 0.0"),
            ({"period": math.nan}, "t1.period must be a finite positive number, got nan"),
            ({"deadline": -1.0}, "t1.deadline must be a finite positive number, got -1.0"),
            ({"npr_length": math.inf}, "t1.npr_length must be a finite positive number, got inf"),
            (
                {"delay_function": PreemptionDelayFunction(constant(1.0, 0.0, 3.0))},
                "t1: delay function domain [0, 3.0] must match wcet 2.0",
            ),
        ],
    )
    def test_task_messages(self, fields, text):
        with pytest.raises(ValueError) as excinfo:
            Task(**{"name": "t1", "wcet": 2.0, "period": 10.0, **fields})
        assert message(excinfo) == text

    def test_schedulability_messages(self):
        tasks = TaskSet([Task("a", 1.0, 10.0), Task("b", 2.0, 20.0)])
        cases = [
            (
                lambda: response_time(tasks[0], [], execution_time=0.0),
                "a: execution time must be > 0",
            ),
            (
                lambda: apply_npr_lengths(tasks, {"a": 1.0, "b": 1.0}, 1.5),
                "fraction must lie in (0, 1], got 1.5",
            ),
            (
                lambda: apply_npr_lengths(tasks, {"a": 1.0, "b": 0.0}, 0.5),
                "task b admits no positive NPR length (Q_max = 0.0)",
            ),
            (lambda: assign_npr_lengths(tasks, "rm"), "unknown policy 'rm'"),
            (
                lambda: assign_npr_lengths(tasks, "edf", 0.0),
                "fraction must lie in (0, 1], got 0.0",
            ),
            (
                lambda: delay_aware_rta(tasks, "magic"),
                "unknown method 'magic'; pick from "
                "('oblivious', 'busquets', 'petters', 'eq4', 'algorithm1')",
            ),
        ]
        for call, text in cases:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert message(excinfo) == text

    def test_analysis_messages(self):
        f = PreemptionDelayFunction.from_constant(1.0, 30.0)
        tasks = TaskSet([Task("a", 3.0, 4.0), Task("b", 3.0, 6.0)]).rate_monotonic()
        cases = [
            (
                lambda: floating_npr_delay_bound(f, 5.0, max_preemptions=-1),
                "max_preemptions must be >= 0, got -1",
            ),
            (
                lambda: fp_max_npr_lengths(tasks),
                "task b has negative blocking tolerance (-2.000): "
                "unschedulable under fixed priority even without blocking",
            ),
            (
                lambda: fp_max_npr_lengths(tasks, tolerances={"a": 1.0, "b": -0.25}),
                "task b has negative blocking tolerance (-0.250): "
                "unschedulable under fixed priority even without blocking",
            ),
        ]
        for call, text in cases:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert message(excinfo) == text

    def test_context_messages(self):
        context = build_context(TaskSetKey(3, 0.5, 7, 0.05, "fp"))
        cases = [
            (
                lambda: build_context(TaskSetKey(3, 0.5, 7, 0.05, "rm")),
                "unknown policy 'rm'",
            ),
            (
                lambda: context.prepared_task_set(1.25),
                "q_fraction must lie in (0, 1], got 1.25",
            ),
        ]
        for call, text in cases:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert message(excinfo) == text


class TestCheckHelperMessages:
    @pytest.mark.parametrize("value", [0, -1.5, math.nan, math.inf, "3"])
    def test_require_positive(self, value):
        with pytest.raises(ValueError) as excinfo:
            require_positive(value, "q")
        assert message(excinfo) == f"q must be a finite positive number, got {value!r}"

    @pytest.mark.parametrize("value", [-1e-300, math.nan, -math.inf, None])
    def test_require_non_negative(self, value):
        with pytest.raises(ValueError) as excinfo:
            require_non_negative(value, "delay")
        assert message(excinfo) == (
            f"delay must be a finite non-negative number, got {value!r}"
        )

    def test_boundaries_pass(self):
        require_positive(5e-324, "q")
        require_non_negative(0.0, "delay")
        require_non_negative(-0.0, "delay")


class TestNoEagerFormatting:
    """The success path must not build a single error message.

    Functions on the hot path are built from coordinate tuples, so the
    precondition is that the tuple constructor validated real functions,
    and the guard is that no :class:`Segment` (whose checks format their
    own ``repr`` on failure) was built or formatted at all.
    """

    @pytest.fixture
    def counters(self, monkeypatch):
        reprs, segments, validated = [], [], []
        original_repr = Segment.__repr__
        original_init = Segment.__post_init__
        original_from = PiecewiseFunction._from_coordinates.__func__

        def counting_repr(self):
            reprs.append(None)
            return original_repr(self)

        def counting_init(self):
            segments.append(None)
            original_init(self)

        def counting_from(cls, *coordinates):
            f = original_from(cls, *coordinates)
            validated.append(len(f))
            return f

        monkeypatch.setattr(Segment, "__repr__", counting_repr)
        monkeypatch.setattr(Segment, "__post_init__", counting_init)
        monkeypatch.setattr(
            PiecewiseFunction, "_from_coordinates", classmethod(counting_from)
        )
        clear_context_cache()
        yield reprs, segments, validated
        clear_context_cache()

    def test_study_scenario(self, counters):
        reprs, segments, validated = counters
        result = evaluate_study_scenario(
            StudyScenario(
                utilization=0.6,
                seed=4242,
                n_tasks=5,
                q_fraction=0.5,
                delay_height=0.05,
                methods=("oblivious", "algorithm1", "eq4"),
            )
        )
        assert result.admitted
        assert len(validated) >= 5, "the scenario validated no functions: the guard tests nothing"
        assert segments == []
        assert reprs == []

    def test_bound_scenario_at_1024_knots(self, counters):
        reprs, segments, validated = counters
        result = evaluate_bound_scenario(BoundScenario("gaussian1", 120.0, knots=1024))
        assert result.algorithm1 > 0
        assert max(validated, default=0) >= 1024
        assert segments == []
        assert reprs == []

    def test_the_guard_sees_a_formatted_message(self, counters):
        reprs, segments, _ = counters
        with pytest.raises(ValueError):
            Segment(0.0, 0.0, 0.0, 0.0)
        assert len(segments) == 1
        assert len(reprs) == 1

    def test_analysis_checks_format_only_on_failure(self):
        formatted = []

        class CountedFloat(float):
            def __format__(self, spec):
                formatted.append(spec)
                return float.__format__(self, spec)

        class CountedInt(int):
            def __format__(self, spec):
                formatted.append(spec)
                return int.__format__(self, spec)

        tasks = TaskSet([Task("a", 1.0, 10.0), Task("b", 2.0, 20.0)]).rate_monotonic()
        fp_max_npr_lengths(tasks, tolerances={"a": CountedFloat(9.0), "b": CountedFloat(8.0)})
        f = PreemptionDelayFunction.from_constant(1.0, 30.0)
        assert floating_npr_delay_bound(f, 5.0, CountedInt(2)).total_delay == 2.0
        assert formatted == []
        with pytest.raises(ValueError):
            fp_max_npr_lengths(tasks, tolerances={"a": CountedFloat(-1.0), "b": 8.0})
        assert formatted == [".3f"]
