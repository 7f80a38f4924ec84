"""Tests for NPR-length determination (EDF and FP)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.npr import (
    assign_npr_lengths,
    edf_blocking_tolerance,
    edf_max_npr_lengths,
    fp_blocking_tolerances,
    fp_max_npr_lengths,
)
from repro.sched import edf_schedulable_with_blocking
from repro.tasks import Task, TaskSet, generate_task_set


def implicit(parameters):
    return TaskSet([Task(n, c, t) for n, c, t in parameters])


class TestEdfBlockingTolerance:
    def test_slack_definition(self):
        ts = implicit([("a", 1.0, 4.0), ("b", 2.0, 8.0)])
        # dbf(4) = 1 -> beta = 3; dbf(8) = 1*2 + 2 = 4 -> beta = 4.
        assert edf_blocking_tolerance(ts, 4.0) == pytest.approx(3.0)
        assert edf_blocking_tolerance(ts, 8.0) == pytest.approx(4.0)


class TestEdfMaxNpr:
    def test_shortest_deadline_unconstrained(self):
        ts = implicit([("a", 1.0, 4.0), ("b", 2.0, 8.0)])
        q = edf_max_npr_lengths(ts, cap_at_wcet=False)
        assert q["a"] == math.inf
        # b's NPR is limited by the slack at t = 4 (the only level < 8).
        assert q["b"] == pytest.approx(3.0)

    def test_cap_at_wcet(self):
        ts = implicit([("a", 1.0, 4.0), ("b", 2.0, 8.0)])
        q = edf_max_npr_lengths(ts)
        assert q["a"] == 1.0
        assert q["b"] == 2.0  # min(3, C_b)

    def test_unschedulable_rejected(self):
        ts = TaskSet(
            [
                Task("a", 3.0, 10.0, deadline=2.0),
                Task("b", 1.0, 10.0, deadline=9.0),
            ]
        )
        with pytest.raises(ValueError, match="negative slack"):
            edf_max_npr_lengths(ts)

    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_assigned_lengths_keep_edf_schedulable(self, seed):
        ts = generate_task_set(4, 0.7, seed=seed)
        assigned = assign_npr_lengths(ts, policy="edf")
        assert edf_schedulable_with_blocking(assigned)

    @given(
        seed=st.integers(min_value=0, max_value=2000),
        fraction=st.sampled_from([0.25, 0.5, 1.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_fractional_assignment_scales(self, seed, fraction):
        ts = generate_task_set(4, 0.6, seed=seed)
        full = assign_npr_lengths(ts, policy="edf", fraction=1.0)
        part = assign_npr_lengths(ts, policy="edf", fraction=fraction)
        for t_full, t_part in zip(full, part):
            assert t_part.npr_length == pytest.approx(
                t_full.npr_length * fraction
            )


class TestFpTolerances:
    def test_highest_priority_tolerance(self):
        ts = implicit([("a", 1.0, 4.0), ("b", 2.0, 8.0)]).rate_monotonic()
        beta = fp_blocking_tolerances(ts)
        # Level a: max slack at t in {4}: 4 - 1 = 3.
        assert beta["a"] == pytest.approx(3.0)
        # Level b: t in {4, 8}: at 4: 4 - (2 + 1) = 1; at 8: 8 - (2+2) = 4.
        assert beta["b"] == pytest.approx(4.0)

    def test_max_npr_uses_higher_priority_tolerances(self):
        ts = implicit([("a", 1.0, 4.0), ("b", 2.0, 8.0)]).rate_monotonic()
        q = fp_max_npr_lengths(ts, cap_at_wcet=False)
        assert q["a"] == math.inf  # nothing above to block
        assert q["b"] == pytest.approx(3.0)  # a's tolerance

    def test_cap(self):
        ts = implicit([("a", 1.0, 4.0), ("b", 2.0, 8.0)]).rate_monotonic()
        q = fp_max_npr_lengths(ts)
        assert q["a"] == 1.0
        assert q["b"] == 2.0

    def test_negative_tolerance_rejected(self):
        ts = implicit([("a", 3.0, 4.0), ("b", 3.0, 6.0)]).rate_monotonic()
        with pytest.raises(ValueError, match="blocking tolerance"):
            fp_max_npr_lengths(ts)

    def test_three_levels_running_minimum(self):
        ts = implicit(
            [("a", 1.0, 4.0), ("b", 1.0, 8.0), ("c", 2.0, 16.0)]
        ).rate_monotonic()
        beta = fp_blocking_tolerances(ts)
        q = fp_max_npr_lengths(ts, cap_at_wcet=False)
        assert q["b"] == pytest.approx(beta["a"])
        assert q["c"] == pytest.approx(min(beta["a"], beta["b"]))


class TestAssignment:
    def test_unknown_policy(self):
        ts = implicit([("a", 1.0, 4.0)])
        with pytest.raises(ValueError):
            assign_npr_lengths(ts, policy="weird")

    def test_bad_fraction(self):
        ts = implicit([("a", 1.0, 4.0)])
        with pytest.raises(ValueError):
            assign_npr_lengths(ts, fraction=0.0)
        with pytest.raises(ValueError):
            assign_npr_lengths(ts, fraction=1.5)

    def test_fp_policy_requires_priorities(self):
        ts = implicit([("a", 1.0, 4.0), ("b", 1.0, 8.0)])
        with pytest.raises(ValueError):
            assign_npr_lengths(ts, policy="fp")
        assigned = assign_npr_lengths(ts.rate_monotonic(), policy="fp")
        assert all(t.npr_length is not None for t in assigned)


class TestLehoczkyFloatRobustness:
    """Exact float comparisons at Lehoczky points (regression tests).

    ``k * period`` can land one ulp away from an exactly-intended
    boundary: ``3 * 0.1 = 0.30000000000000004`` (so a testing point
    equal to the deadline was dropped by ``k * T <= D``) and
    ``2.1 / 0.7 = 3.0000000000000004`` (so the workload ``ceil``
    charged one spurious whole job at a testing point, understating
    ``beta_i``).  Both comparisons now carry a relative tolerance.
    """

    def test_testing_set_keeps_deadline_coincident_multiple(self):
        from repro.npr.qmax_fp import _testing_set

        ts = TaskSet(
            [Task("hp", 0.02, 0.1), Task("lo", 0.05, 0.4, deadline=0.3)]
        ).rate_monotonic()
        ordered = list(ts.sorted_by_priority())
        points = _testing_set(ordered, 1)
        # 0.1, 0.2 and the third multiple (3 * 0.1, float-rounded just
        # above 0.3) clamped onto the deadline.
        assert points == [0.1, 0.2, 0.3]
        assert max(points) <= 0.3  # clamped, never beyond D_i

    def test_workload_does_not_overcount_at_exact_multiple(self):
        ts = TaskSet(
            [Task("hp", 0.2, 0.7), Task("lo", 0.5, 2.1)]
        ).rate_monotonic()
        # 2.1 / 0.7 float-rounds to 3.0000000000000004; a plain ceil
        # charged 4 jobs of hp (W = 1.3) instead of 3 (W = 1.1) at
        # t = 2.1, the point of the largest slack 2.1 - 1.1 (the others,
        # 0.7 and 1.4, leave 0.0 and 0.5).
        assert fp_blocking_tolerances(ts)["lo"] == pytest.approx(1.0)

    def test_blocking_tolerance_not_understated_by_rounding(self):
        ts = TaskSet(
            [Task("hp", 0.25, 0.7), Task("lo", 0.5, 2.1)]
        ).rate_monotonic()
        beta = fp_blocking_tolerances(ts)["lo"]
        # Exact slack at t = D = 2.1: 2.1 - (0.5 + 3 * 0.25).  The
        # pre-fix code evaluated ceil(2.1 / 0.7) = 4 there and fell
        # back to the one-ulp-lower point 3 * 0.7, understating beta.
        assert beta == 2.1 - (0.5 + 3 * 0.25)

    def test_decimal_periods_unaffected_elsewhere(self):
        # The tolerance must not change genuinely fractional ratios:
        # a deadline strictly between multiples keeps its testing set.
        from repro.npr.qmax_fp import _testing_set

        ts = TaskSet(
            [Task("hp", 0.02, 0.1), Task("lo", 0.05, 0.4, deadline=0.25)]
        ).rate_monotonic()
        ordered = list(ts.sorted_by_priority())
        assert _testing_set(ordered, 1) == [0.1, 0.2, 0.25]


class TestEdfSlackFloatRobustness:
    """The EDF mirror of the Lehoczky fixes (regression tests).

    The Bertogna-Baruah slack criterion shares the failure mode:
    demand step points ``k * T + D`` float-round one ulp around
    exactly-intended boundaries (``3 * 0.7 = 2.0999999999999996`` vs
    ``2.1``), so exact comparisons dropped or kept deadline-coincident
    levels inconsistently, and the demand ``floor`` missed a whole
    released job at an exact multiple — overstating ``beta`` and hence
    ``Q_k``, which is unsafe.  All comparisons now carry a relative
    tolerance (see :mod:`repro.npr.qmax_edf`).
    """

    def test_demand_does_not_undercount_at_rounded_level(self):
        from repro.npr.qmax_edf import _released_jobs

        # The level 3 * 0.7 float-rounds *below* the intended 2.1, so
        # (t - D) / T = 1.9999999999999998; a plain floor charged 2
        # released jobs instead of 3 (deadlines 0.7, 1.4, 2.1).
        assert _released_jobs(3 * 0.7, 0.7, 0.7) == 3
        # Exact float levels and genuinely fractional ones unchanged.
        assert _released_jobs(2.1, 0.7, 0.7) == 3
        assert _released_jobs(2.0, 0.7, 0.7) == 2
        assert _released_jobs(0.5, 0.7, 0.7) == 0

    def test_slack_not_overstated_at_deadline_coincident_level(self):
        ts = TaskSet([Task("a", 0.2, 0.7)])
        # Exact slack at the (mathematical) level 2.1: three jobs of a
        # have deadlines at or before it.  The pre-fix code evaluated
        # floor(1.9999999999999998) + 1 = 2 jobs at the float-rounded
        # level, overstating the slack by one whole WCET.
        assert edf_blocking_tolerance(ts, 3 * 0.7) == pytest.approx(
            2.1 - 3 * 0.2
        )

    def test_bound_coincident_levels_excluded_from_both_sides(self):
        from repro.npr.qmax_edf import _testing_levels

        # 3 * 0.7 rounds *below* 2.1: exact "< bound" kept the level
        # even though it is deadline-coincident (to be dropped)...
        ts = TaskSet([Task("a", 0.2, 0.7), Task("b", 0.5, 4.2, deadline=2.1)])
        assert _testing_levels(ts, 2.1) == [0.7, 1.4]
        # ...while 3 * 0.1 rounds *above* 0.3 and was dropped; both
        # directions must now agree (coincident -> excluded).
        ts2 = TaskSet([Task("a", 0.02, 0.1), Task("b", 0.05, 0.6, deadline=0.3)])
        assert _testing_levels(ts2, 0.3) == [0.1, 0.2]

    def test_strictly_interior_levels_kept(self):
        from repro.npr.qmax_edf import _testing_levels

        # The tolerance must not swallow genuinely interior levels.
        ts = TaskSet([Task("a", 0.02, 0.1), Task("b", 0.05, 0.5, deadline=0.25)])
        assert _testing_levels(ts, 0.25) == [0.1, 0.2]

    def test_q_unchanged_on_decimal_free_sets(self):
        # Integer-timed sets hit no rounding at all: the tolerant path
        # must reproduce the exact arithmetic.
        ts = implicit([("a", 1.0, 4.0), ("b", 2.0, 8.0)])
        q = edf_max_npr_lengths(ts, cap_at_wcet=False)
        assert q["a"] == math.inf
        assert q["b"] == pytest.approx(3.0)
