"""The engine's per-scenario path, where the batch kernels used to plug in.

Algorithm 1 has one exact kernel, so the struct-of-arrays batch kernels
and the engine's ``backend=``/``batch_worker=`` seam are gone.  These
tests pin what replaced them: every route through the engine — inline,
thread pool, process pool, grouped or not, cached store runs — evaluates
per scenario and emits results **bit-identical** to direct worker calls,
divergent (``converged=False``) lanes included; and the ``batch_worker``
argument that :func:`repro.api.execute_scenarios` keeps for the repo
benchmark accepts only ``None``.
"""

import pytest

from repro.api import ExecutionOptions, execute_scenarios
from repro.api.plan import plan_scenarios
from repro.engine import (
    BoundScenario,
    WorkerError,
    evaluate_bound_scenario,
    get_family,
    q_sweep_scenarios,
    run_batch,
    run_cached_batch,
)
from repro.engine.sweeps import bound_context_key
from repro.store import ResultStore

#: Mixed grid over two benchmark functions: easy lanes, a lane close to
#: the divergence threshold, and q values spread across the domain.
QS = [50.0, 120.0, 260.0, 395.0]
KNOTS = 48

#: Far below the kernel's default budget, so the iteration-guard test
#: doesn't walk a million windows.
_ITERATION_CAP = 500


def _scenarios() -> list[BoundScenario]:
    return q_sweep_scenarios(QS, knots=KNOTS)


def _reference(scenarios) -> list:
    return [evaluate_bound_scenario(s) for s in scenarios]


class TestBatchWorkerParity:
    def test_batch_equals_per_scenario_reference(self):
        scenarios = _scenarios()
        run = execute_scenarios(
            evaluate_bound_scenario,
            scenarios,
            group_by=bound_context_key,
            batch_worker=None,
        )
        assert run.results == _reference(scenarios)

    def test_divergent_lanes_agree_with_the_reference(self):
        # Tiny q drives Algorithm 1 past its progress threshold: the
        # kernel reports converged=False, and the pooled, grouped route
        # must agree scenario by scenario rather than raise.
        scenarios = [
            BoundScenario(function="gaussian1", q=q, knots=KNOTS)
            for q in (9.5, 10.0, 50.0)
        ]
        reference = _reference(scenarios)
        assert any(not r.converged for r in reference)
        assert any(r.converged for r in reference)
        got = run_batch(
            evaluate_bound_scenario,
            scenarios,
            max_workers=2,
            group_by=bound_context_key,
        )
        assert got == reference

    def test_iteration_guard_raises_the_scalar_message(self):
        # Just above the divergence threshold Algorithm 1 exhausts its
        # iteration budget; the engine must surface the kernel's own
        # message, pinned to the failing scenario.
        from repro.core.floating_npr import floating_npr_delay_bound
        from repro.engine.sweeps import benchmark_function

        context = benchmark_function("gaussian1", knots=KNOTS)
        with pytest.raises(ValueError, match="exceeded") as scalar_exc:
            floating_npr_delay_bound(
                context, 10.000001, max_iterations=_ITERATION_CAP
            )
        with pytest.raises(WorkerError) as engine_exc:
            run_batch(_capped_bound, [50.0, 10.000001])
        assert engine_exc.value.index == 1
        assert engine_exc.value.cause_repr == repr(scalar_exc.value)
        assert str(engine_exc.value.__cause__) == str(scalar_exc.value)

    def test_order_is_the_input_order_across_groups(self):
        # q-major input interleaves the two context groups; the engine
        # groups internally but must emit input order.
        scenarios = _scenarios()
        results = run_batch(
            evaluate_bound_scenario,
            scenarios,
            max_workers=2,
            chunk_size=1,
            group_by=bound_context_key,
        )
        assert [(r.function, r.q) for r in results] == [
            (s.function, s.q) for s in scenarios
        ]

    def test_backend_without_batch_kernel_is_refused(self):
        with pytest.raises(ValueError, match="batch_worker must be None"):
            execute_scenarios(
                evaluate_bound_scenario,
                _scenarios()[:1],
                batch_worker=evaluate_bound_scenario,
            )


class TestEngineBackendSeam:
    def test_thread_executor_batched(self, thread_pool):
        scenarios = _scenarios()
        got = run_batch(
            evaluate_bound_scenario,
            scenarios,
            max_workers=2,
            group_by=bound_context_key,
        )
        assert got == _reference(scenarios)

    def test_batchless_backend_falls_back_per_scenario(self):
        # The call shape the repo benchmark uses: a plan's batch_worker
        # (always None now) handed straight to execute_scenarios.
        plan = plan_scenarios("sweep", {"points": 4, "knots": KNOTS})
        assert plan.batch_worker is None
        run = execute_scenarios(
            plan.worker,
            plan.scenarios,
            group_by=plan.group_by,
            decode=plan.decode,
            batch_worker=plan.batch_worker,
        )
        assert run.results == _reference(plan.scenarios)

    def test_unknown_backend_fails_before_running(self):
        # The engine has no backend keyword left; passing one fails at
        # the call, before any scenario is evaluated.
        with pytest.raises(TypeError, match="backend"):
            run_batch(_explodes_if_called, _scenarios(), backend="numpy")


class TestCachedBackendSeam:
    def test_resumed_store_mixes_cached_and_batched_rows(self, tmp_path):
        scenarios = _scenarios()
        expected = _reference(scenarios)
        half = len(scenarios) // 2

        with ResultStore(tmp_path / "s.sqlite") as store:
            # Warm only half the grid, inline.
            first = run_cached_batch(
                evaluate_bound_scenario, scenarios[:half], store
            )
            assert first.computed == half
            # Finish grouped on a pool: cached rows replay, the rest
            # evaluates per scenario, order preserved.
            run = run_cached_batch(
                evaluate_bound_scenario,
                scenarios,
                store,
                decode=get_family("bound").decoder,
                max_workers=2,
                group_by=bound_context_key,
            )
        assert run.cached == half
        assert run.computed == len(scenarios) - half
        assert run.results == expected


class TestStudyBatchWorkerParity:
    """The study family takes the same per-scenario route."""

    @staticmethod
    def _study_scenarios():
        import itertools

        from repro.engine.sweeps import StudyScenario
        from repro.sched.crpd_rta import METHODS

        # Mixed grid: three generated sets (two of which admit NPR
        # assignments, the u=0.98 one does not) under two fractions —
        # so groups and the not-admitted early-out all engage.
        return [
            StudyScenario(
                utilization=u,
                seed=seed,
                n_tasks=4,
                q_fraction=q_fraction,
                delay_height=0.3,
                methods=METHODS,
            )
            for u, seed, q_fraction in itertools.product(
                (0.6, 0.85, 0.98), (1, 2), (0.4, 1.0)
            )
        ]

    def test_batch_equals_per_scenario_reference(self):
        from repro.engine.sweeps import (
            evaluate_study_scenario,
            study_context_key,
        )

        scenarios = self._study_scenarios()
        reference = [evaluate_study_scenario(s) for s in scenarios]
        # The grid must actually exercise both branches…
        assert any(not r.admitted for r in reference)
        assert any(r.admitted for r in reference)
        # …and somewhere algorithm1's verdict must differ from eq4's
        # (Theorem 1 dominance), or the grid proves nothing.
        assert any(
            r.accepted[-1] != r.accepted[-2]
            for r in reference
            if r.admitted
        )
        got = run_batch(
            evaluate_study_scenario, scenarios, group_by=study_context_key
        )
        assert got == reference

    def test_engine_route_is_bit_identical(self):
        from repro.engine.sweeps import (
            evaluate_study_scenario,
            study_context_key,
        )

        scenarios = self._study_scenarios()
        expected = run_batch(evaluate_study_scenario, scenarios)
        got = run_batch(
            evaluate_study_scenario,
            scenarios,
            max_workers=2,
            group_by=study_context_key,
        )
        assert got == expected

    def test_backend_without_batch_kernel_is_refused(self, tmp_path):
        # Refused before the store is even opened.
        from repro.engine.sweeps import evaluate_study_scenario

        store = tmp_path / "study.sqlite"
        with pytest.raises(ValueError, match="batch_worker must be None"):
            execute_scenarios(
                evaluate_study_scenario,
                self._study_scenarios()[:1],
                options=ExecutionOptions(store=str(store)),
                batch_worker=evaluate_study_scenario,
            )
        assert not store.exists()

    def test_registered_on_the_study_family(self):
        from dataclasses import fields

        from repro.engine.registry import ScenarioFamily, get_family
        from repro.engine.sweeps import evaluate_study_scenario

        family = get_family("study")
        assert family.worker is evaluate_study_scenario
        assert "batch_worker" not in {f.name for f in fields(ScenarioFamily)}


def _capped_bound(q: float):
    from repro.core.floating_npr import floating_npr_delay_bound
    from repro.engine.sweeps import benchmark_function

    context = benchmark_function("gaussian1", knots=KNOTS)
    return floating_npr_delay_bound(
        context, q, max_iterations=_ITERATION_CAP
    )


def _explodes_if_called(scenario):  # pragma: no cover
    raise AssertionError("the worker must not run")
