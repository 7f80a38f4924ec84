"""Struct-of-arrays batch evaluation through the engine's backend seam.

The acceptance surface of the batch path: under ``backend="numpy"`` a
whole grouped chunk evaluates as one array operation, and every route
through the engine — inline, thread pool, process pool, cached store
runs, grouped or not — emits results **bit-identical** to the
per-scenario reference.  Divergent lanes (``converged=False``) and
mixed-function grids are part of the parity grid, not excluded from it.
"""

import pytest

from repro.engine import (
    BoundScenario,
    WorkerError,
    bound_result_from_record,
    evaluate_bound_batch,
    evaluate_bound_scenario,
    q_sweep_scenarios,
    run_batch,
    run_cached_batch,
)
from repro.engine.sweeps import bound_context_key
from repro.piecewise.backends import (
    available_backends,
    backend_names,
    get_backend,
)
from repro.store import ResultStore

#: Mixed grid over two benchmark functions: easy lanes, a lane close to
#: the divergence threshold, and q values spread across the domain.
QS = [50.0, 120.0, 260.0, 395.0]
KNOTS = 48

#: Every registered backend whose design includes a batch bound kernel.
BATCH_BACKENDS = [
    name for name in backend_names() if get_backend(name).batch_capable
]


def _scenarios() -> list[BoundScenario]:
    return q_sweep_scenarios(QS, knots=KNOTS)


def _reference(scenarios) -> list:
    return [evaluate_bound_scenario(s) for s in scenarios]


class TestBatchWorkerParity:
    def test_batch_equals_per_scenario_reference(self):
        pytest.importorskip("numpy")
        scenarios = _scenarios()
        assert evaluate_bound_batch(scenarios) == _reference(scenarios)

    def test_divergent_lanes_agree_with_the_reference(self):
        pytest.importorskip("numpy")
        # Tiny q drives Algorithm 1 past its progress threshold: the
        # scalar path reports converged=False, and the lockstep kernel
        # must agree lane by lane rather than raise.
        scenarios = [
            BoundScenario(function="gaussian1", q=q, knots=KNOTS)
            for q in (9.5, 10.0, 50.0)
        ]
        reference = _reference(scenarios)
        assert any(not r.converged for r in reference)
        assert any(r.converged for r in reference)
        assert evaluate_bound_batch(scenarios) == reference

    def test_iteration_guard_raises_the_scalar_message(self):
        pytest.importorskip("numpy")
        # Just above the divergence threshold Algorithm 1 exhausts its
        # iteration budget; the lockstep kernel must raise the same
        # message the scalar walk does.  Capped far below the default
        # budget so the test doesn't walk a million windows.
        from repro.core.floating_npr import (
            _MIN_PROGRESS_FRACTION,
            floating_npr_delay_bound,
        )
        from repro.engine.sweeps import benchmark_function
        from repro.piecewise import batched_grid_for, resolve_backend

        context = benchmark_function("gaussian1", knots=KNOTS)
        q, cap = 10.000001, 500
        with pytest.raises(ValueError, match="exceeded") as scalar_exc:
            floating_npr_delay_bound(context, q, max_iterations=cap)
        kernel = resolve_backend("numpy").bound_batch
        with pytest.raises(ValueError, match="exceeded") as batch_exc:
            kernel(
                batched_grid_for(context.function),
                [q],
                wcet=context.wcet,
                min_progress_fraction=_MIN_PROGRESS_FRACTION,
                max_iterations=cap,
            )
        assert str(batch_exc.value) == str(scalar_exc.value)

    @pytest.mark.parametrize("backend", BATCH_BACKENDS)
    def test_every_batch_backend_matches_the_reference(self, backend):
        # Any registered batch kernel must agree with the scalar walk
        # bit for bit.
        if backend not in available_backends():
            pytest.skip(f"backend {backend!r} not available here")
        scenarios = _scenarios()
        assert evaluate_bound_batch(
            scenarios, backend=backend
        ) == _reference(scenarios)

    def test_order_is_the_input_order_across_groups(self):
        pytest.importorskip("numpy")
        # q-major input interleaves the two context groups; the batch
        # evaluator groups internally but must emit input order.
        scenarios = _scenarios()
        results = evaluate_bound_batch(scenarios)
        assert [(r.function, r.q) for r in results] == [
            (s.function, s.q) for s in scenarios
        ]

    def test_backend_without_batch_kernel_is_refused(self):
        with pytest.raises(ValueError, match="does not support batch"):
            evaluate_bound_batch(_scenarios()[:1], backend="vectorized")


class TestEngineBackendSeam:
    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("max_workers", [None, 2])
    def test_numpy_backend_bit_identical_on_every_route(
        self, grouped, max_workers
    ):
        pytest.importorskip("numpy")
        scenarios = _scenarios()
        expected = run_batch(evaluate_bound_scenario, scenarios)
        got = run_batch(
            evaluate_bound_scenario,
            scenarios,
            max_workers=max_workers,
            group_by=bound_context_key if grouped else None,
            backend="numpy",
            batch_worker=evaluate_bound_batch,
        )
        assert got == expected

    def test_thread_executor_batched(self):
        pytest.importorskip("numpy")
        scenarios = _scenarios()
        got = run_batch(
            evaluate_bound_scenario,
            scenarios,
            max_workers=2,
            executor="thread",
            group_by=bound_context_key,
            backend="numpy",
            batch_worker=evaluate_bound_batch,
        )
        assert got == run_batch(evaluate_bound_scenario, scenarios)

    def test_batchless_backend_falls_back_per_scenario(self):
        # vectorized has no batch kernel: the seam silently keeps the
        # per-scenario path instead of calling the batch worker.
        scenarios = _scenarios()
        got = run_batch(
            evaluate_bound_scenario,
            scenarios,
            backend="vectorized",
            batch_worker=_explodes_if_called,
        )
        assert got == run_batch(evaluate_bound_scenario, scenarios)

    def test_unknown_backend_fails_before_running(self):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            run_batch(
                evaluate_bound_scenario,
                _scenarios(),
                backend="bogus",
                batch_worker=evaluate_bound_batch,
            )

    def test_short_batch_result_is_a_worker_error(self):
        pytest.importorskip("numpy")
        scenarios = _scenarios()
        with pytest.raises(WorkerError, match="batch worker returned"):
            run_batch(
                evaluate_bound_scenario,
                scenarios,
                backend="numpy",
                batch_worker=_drops_last_result,
            )


class TestCachedBackendSeam:
    def test_resumed_store_mixes_cached_and_batched_rows(self, tmp_path):
        pytest.importorskip("numpy")
        scenarios = _scenarios()
        expected = run_batch(evaluate_bound_scenario, scenarios)

        with ResultStore(tmp_path / "s.sqlite") as store:
            # Warm only half the grid, per-scenario.
            first = run_cached_batch(
                evaluate_bound_scenario, scenarios[: len(scenarios) // 2],
                store,
            )
            assert first.computed == len(scenarios) // 2
            # Finish under the numpy batch path: cached rows replay,
            # the rest evaluates as array chunks, order preserved.
            run = run_cached_batch(
                evaluate_bound_scenario,
                scenarios,
                store,
                decode=bound_result_from_record,
                group_by=bound_context_key,
                backend="numpy",
                batch_worker=evaluate_bound_batch,
            )
        assert run.cached == len(scenarios) // 2
        assert run.computed == len(scenarios) - len(scenarios) // 2
        assert run.results == expected


class TestStudyBatchWorkerParity:
    """The study family's batch entry point mirrors the bound one."""

    @staticmethod
    def _study_scenarios():
        import itertools

        from repro.engine.sweeps import StudyScenario
        from repro.sched.crpd_rta import METHODS

        # Mixed grid: three generated sets (two of which admit NPR
        # assignments, the u=0.98 one does not) under two fractions —
        # so lanes, groups, and the not-admitted early-out all engage.
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
        pytest.importorskip("numpy")
        from repro.engine import evaluate_study_batch
        from repro.engine.sweeps import evaluate_study_scenario

        scenarios = self._study_scenarios()
        reference = [evaluate_study_scenario(s) for s in scenarios]
        # The grid must actually exercise both branches…
        assert any(not r.admitted for r in reference)
        assert any(r.admitted for r in reference)
        # …and somewhere algorithm1's verdict must differ from eq4's
        # (Theorem 1 dominance), or the lanes prove nothing.
        assert any(
            r.accepted[-1] != r.accepted[-2]
            for r in reference
            if r.admitted
        )
        assert evaluate_study_batch(scenarios) == reference

    def test_engine_route_is_bit_identical(self):
        pytest.importorskip("numpy")
        from repro.engine import evaluate_study_batch
        from repro.engine.sweeps import (
            evaluate_study_scenario,
            study_context_key,
        )

        scenarios = self._study_scenarios()
        expected = run_batch(evaluate_study_scenario, scenarios)
        got = run_batch(
            evaluate_study_scenario,
            scenarios,
            group_by=study_context_key,
            backend="numpy",
            batch_worker=evaluate_study_batch,
        )
        assert got == expected

    @pytest.mark.parametrize("backend", BATCH_BACKENDS)
    def test_every_batch_backend_matches_the_reference(self, backend):
        from repro.engine import evaluate_study_batch
        from repro.engine.sweeps import evaluate_study_scenario

        if backend not in available_backends():
            pytest.skip(f"backend {backend!r} not available here")
        scenarios = self._study_scenarios()
        assert evaluate_study_batch(scenarios, backend=backend) == [
            evaluate_study_scenario(s) for s in scenarios
        ]

    def test_backend_without_batch_kernel_is_refused(self):
        from repro.engine import evaluate_study_batch

        with pytest.raises(ValueError, match="does not support batch"):
            evaluate_study_batch(
                self._study_scenarios()[:1], backend="vectorized"
            )

    def test_registered_on_the_study_family(self):
        from repro.engine import evaluate_study_batch
        from repro.engine.registry import get_family

        assert get_family("study").batch_worker is evaluate_study_batch


def _explodes_if_called(scenarios, *, backend):  # pragma: no cover
    raise AssertionError("batch worker must not run for this backend")


def _drops_last_result(scenarios, *, backend):
    return evaluate_bound_batch(scenarios, backend=backend)[:-1]
