"""Tests for response-time analysis."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import response_time, rta_fixed_priority
from repro.tasks import Task, TaskSet


def prio(tasks):
    return TaskSet(tasks).rate_monotonic()


class TestResponseTime:
    def test_highest_priority_alone(self):
        t = Task("a", 2.0, 10.0)
        assert response_time(t, []) == 2.0

    def test_textbook_example(self):
        # Classic RM example: C=(1,2,3), T=(4,6,12).
        t1 = Task("t1", 1.0, 4.0)
        t2 = Task("t2", 2.0, 6.0)
        t3 = Task("t3", 3.0, 12.0)
        assert response_time(t1, []) == 1.0
        assert response_time(t2, [t1]) == 3.0
        # R3: 3 + 2*ceil(R/4)... fixpoint at 11: 3 + 3*1 + 2*2 = 10;
        # iterate: 6 -> 3+2+2*2... compute: start 3: I=1*3? do by hand:
        # R0=3; R1=3+ceil(3/4)*1+ceil(3/6)*2=3+1+2=6;
        # R2=3+ceil(6/4)*1+ceil(6/6)*2=3+2+2=7;
        # R3=3+ceil(7/4)*1+ceil(7/6)*2=3+2+4=9;
        # R4=3+ceil(9/4)*1+ceil(9/6)*2=3+3+4=10;
        # R5=3+ceil(10/4)*1+ceil(10/6)*2=3+3+4=10.  Fixpoint 10.
        assert response_time(t3, [t1, t2]) == 10.0

    def test_blocking_adds_directly(self):
        t = Task("a", 2.0, 10.0)
        assert response_time(t, [], blocking=3.0) == 5.0

    def test_interference_inflation(self):
        t1 = Task("t1", 1.0, 4.0)
        t2 = Task("t2", 2.0, 6.0)
        base = response_time(t2, [t1])
        inflated = response_time(
            t2, [t1], interference_inflation={"t1": 0.5}
        )
        assert inflated > base

    def test_deadline_miss_returns_inf(self):
        t1 = Task("t1", 3.0, 4.0)
        t2 = Task("t2", 3.0, 6.0, deadline=6.0)
        assert response_time(t2, [t1]) == math.inf

    def test_execution_time_override(self):
        t = Task("a", 2.0, 10.0)
        assert response_time(t, [], execution_time=4.0) == 4.0


class TestRtaFixedPriority:
    def test_schedulable_set(self):
        ts = prio(
            [Task("t1", 1.0, 4.0), Task("t2", 2.0, 6.0), Task("t3", 3.0, 12.0)]
        )
        result = rta_fixed_priority(ts)
        assert result.schedulable
        assert result.response_times["t3"] == 10.0

    def test_unschedulable_set(self):
        ts = prio([Task("t1", 3.0, 4.0), Task("t2", 3.0, 6.0)])
        result = rta_fixed_priority(ts)
        assert not result.schedulable
        assert result.response_times["t2"] == math.inf

    def test_npr_blocking_accounted(self):
        # Lower-priority task with a long NPR blocks the high one.
        tasks = TaskSet(
            [
                Task("hi", 2.0, 8.0, npr_length=None),
                Task("lo", 10.0, 40.0, npr_length=2.5),
            ]
        ).rate_monotonic()
        with_blocking = rta_fixed_priority(tasks)
        without_blocking = rta_fixed_priority(
            tasks, include_npr_blocking=False
        )
        assert (
            with_blocking.response_times["hi"]
            == without_blocking.response_times["hi"] + 2.5
        )

    def test_execution_time_overrides(self):
        ts = prio([Task("t1", 1.0, 4.0), Task("t2", 2.0, 6.0)])
        base = rta_fixed_priority(ts)
        inflated = rta_fixed_priority(ts, execution_times={"t2": 2.5})
        assert (
            inflated.response_times["t2"] > base.response_times["t2"]
        )

    def test_blocking_cannot_help(self):
        ts = prio([Task("t1", 1.0, 4.0), Task("t2", 2.0, 6.0)])
        plain = rta_fixed_priority(ts, include_npr_blocking=False)
        blocked = rta_fixed_priority(
            ts.map(lambda t: t.with_npr_length(0.5))
        )
        for name in ("t1", "t2"):
            assert (
                blocked.response_times[name] >= plain.response_times[name]
            )


# ----------------------------------------------------------------------
# bit-identity with the per-task rescan it replaces
# ----------------------------------------------------------------------


def _frozen_blocking_term(ordered, index):
    return max(
        (
            t.npr_length
            for t in ordered[index + 1 :]
            if t.npr_length is not None
        ),
        default=0.0,
    )


def _frozen_response_time(
    task, higher_priority, blocking, execution_time,
    hp_execution_times, interference_inflation,
):
    c = execution_time if execution_time is not None else task.wcet
    hp_times = hp_execution_times or {}
    hp_costs = [
        (hp, hp_times.get(hp.name, hp.wcet)) for hp in higher_priority
    ]
    if (
        not math.isfinite(c)
        or not math.isfinite(blocking)
        or any(not math.isfinite(cost) for _, cost in hp_costs)
    ):
        return math.inf
    gamma = interference_inflation or {}
    r = c + blocking
    for _ in range(100_000):
        interference = sum(
            math.ceil(r / hp.period) * (cost + gamma.get(hp.name, 0.0))
            for hp, cost in hp_costs
        )
        updated = c + blocking + interference
        if updated == r:
            return r
        if updated > task.deadline:
            return math.inf
        r = updated
    return math.inf


def _frozen_rta(
    tasks, execution_times, interference_inflation, include_npr_blocking
):
    """The rescan-per-task analysis, frozen as it was."""
    ordered = list(tasks.sorted_by_priority())
    execution_times = execution_times or {}
    interference_inflation = interference_inflation or {}
    response_times = {}
    schedulable = True
    for i, task in enumerate(ordered):
        blocking = (
            _frozen_blocking_term(ordered, i) if include_npr_blocking else 0.0
        )
        r = _frozen_response_time(
            task, ordered[:i], blocking, execution_times.get(task.name),
            execution_times, interference_inflation.get(task.name),
        )
        response_times[task.name] = r
        if not (r <= task.deadline):
            schedulable = False
    return response_times, schedulable


def _typed(values):
    """Values with their type and sign, so ``5`` vs ``5.0`` and
    ``0.0`` vs ``-0.0`` differences show."""
    return {
        name: (type(value), repr(value), math.copysign(1.0, value))
        for name, value in values.items()
    }


#: Rich in ties across types, so the suffix maximum's holder matters.
_npr = st.one_of(st.none(), st.sampled_from([1, 1.0, 2, 2.0, 0.5, 3.25]))
_cost = st.one_of(
    st.floats(min_value=0.1, max_value=30.0), st.just(math.inf)
)


@st.composite
def _rta_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    tasks = []
    for k in range(n):
        period = draw(st.sampled_from([4, 6.0, 10.0, 12, 25.5, 40.0, 100.0]))
        tasks.append(
            Task(
                f"t{k}",
                draw(
                    st.one_of(
                        st.integers(min_value=1, max_value=2),
                        st.floats(min_value=0.1, max_value=period / 2),
                    )
                ),
                period,
                npr_length=draw(_npr),
                priority=draw(st.integers(min_value=1, max_value=4)),
            )
        )
    names = [t.name for t in tasks]
    execution_times = draw(
        st.dictionaries(st.sampled_from(names), _cost, max_size=n)
    )
    inflation = draw(
        st.dictionaries(
            st.sampled_from(names),
            st.dictionaries(
                st.sampled_from(names),
                st.one_of(
                    st.floats(min_value=0.0, max_value=3.0),
                    st.just(math.inf),
                ),
                max_size=n,
            ),
            max_size=n,
        )
    )
    return TaskSet(tasks), execution_times, inflation, draw(st.booleans())


class TestOneBlockingPass:
    @settings(max_examples=300, deadline=None)
    @given(_rta_inputs())
    def test_matches_the_per_task_rescan(self, inputs):
        tasks, execution_times, inflation, blocking = inputs
        times, schedulable = _frozen_rta(
            tasks, execution_times, inflation, blocking
        )
        result = rta_fixed_priority(
            tasks,
            execution_times=execution_times,
            interference_inflation=inflation,
            include_npr_blocking=blocking,
        )
        assert result.schedulable == schedulable
        assert list(result.response_times) == list(times)
        assert _typed(result.response_times) == _typed(times)

    def test_tied_maxima_keep_the_highest_priority_holder(self):
        # 2 (int) ties 2.0 (float): the forward max over the suffix
        # returns the first one, and so must the reverse pass — with an
        # int WCET the holder decides the response time's type.
        tasks = TaskSet(
            [
                Task("a", 1, 50.0, priority=1),
                Task("b", 1.0, 50.0, npr_length=2, priority=2),
                Task("c", 1.0, 50.0, npr_length=2.0, priority=3),
            ]
        )
        times = rta_fixed_priority(tasks).response_times
        assert _typed(times) == _typed(_frozen_rta(tasks, {}, {}, True)[0])
        assert repr(times["a"]) == "3"
