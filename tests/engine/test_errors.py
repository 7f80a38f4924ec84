"""WorkerError: scenario-pinned failure reporting from the inline and
pooled paths, including pickling across the process-pool boundary."""

import pickle

import pytest

from repro.engine import WorkerError, run_batch


def _boom_on_three(x: int) -> int:
    """Module-level (picklable) worker failing on one scenario."""
    if x == 3:
        raise ValueError("three is right out")
    return x * x


class TestInline:
    def test_failure_is_wrapped_with_index_and_scenario(self):
        with pytest.raises(WorkerError) as excinfo:
            run_batch(_boom_on_three, [0, 1, 2, 3, 4])
        err = excinfo.value
        assert err.index == 3
        assert "3" in err.scenario_repr
        assert "three is right out" in err.cause_repr
        assert "scenario 3" in str(err)

    def test_original_exception_is_the_cause(self):
        with pytest.raises(WorkerError) as excinfo:
            run_batch(_boom_on_three, [3])
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_is_a_runtime_error(self):
        with pytest.raises(RuntimeError):
            run_batch(_boom_on_three, [3])


class TestPooled:
    @pytest.mark.parametrize("executor", ["process"])
    def test_failure_carries_global_index(self, executor):
        with pytest.raises(WorkerError) as excinfo:
            run_batch(
                _boom_on_three,
                [0, 1, 2, 3, 4, 5],
                max_workers=2,
                chunk_size=2,
            )
        assert excinfo.value.index == 3

    def test_pickles_roundtrip(self):
        err = WorkerError(7, "Scenario(q=1.0)", "ValueError('x')")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, WorkerError)
        assert clone.index == 7
        assert clone.scenario_repr == "Scenario(q=1.0)"
        assert str(clone) == str(err)


class TestLongScenarioRepr:
    def test_repr_is_truncated(self):
        def boom(_):
            raise RuntimeError("nope")

        with pytest.raises(WorkerError) as excinfo:
            run_batch(boom, ["x" * 1000])
        assert len(excinfo.value.scenario_repr) <= 200
