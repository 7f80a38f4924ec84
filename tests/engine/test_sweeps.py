"""Sweep workers: equivalence with the single-shot code paths and
determinism of the folded figure/study grids under pooling."""

import pytest

from repro.core.bounds import compare_bounds
from repro.engine import (
    BoundScenario,
    StudyScenario,
    evaluate_bound_scenario,
    evaluate_study_scenario,
    q_sweep_scenarios,
    run_batch,
)
from repro.experiments import (
    default_q_grid,
    fig5_data_from_results,
    fold_study_points,
    study_scenarios,
)
from repro.experiments.functions_fig4 import FIG4_NAMES, fig4_delay_function

KNOTS = 128  # keep the functions cheap; identity is what matters here


class TestBoundScenarios:
    def test_grid_is_q_major(self):
        scenarios = q_sweep_scenarios([10.0, 20.0], knots=KNOTS)
        assert [s.q for s in scenarios] == [10.0, 10.0, 10.0, 20.0, 20.0, 20.0]
        assert [s.function for s in scenarios[:3]] == list(FIG4_NAMES)

    def test_empty_function_list_rejected(self):
        with pytest.raises(ValueError):
            q_sweep_scenarios([10.0], functions=())

    def test_worker_matches_single_shot_api(self):
        scenario = BoundScenario(function="gaussian1", q=150.0, knots=KNOTS)
        result = evaluate_bound_scenario(scenario)
        single = compare_bounds(
            fig4_delay_function("gaussian1", knots=KNOTS), 150.0
        )
        assert result.algorithm1 == single.algorithm1.total_delay
        assert result.state_of_the_art == single.state_of_the_art.total_delay
        assert result.preemptions == single.algorithm1.preemptions

    def test_divergent_scenario_reported(self):
        result = evaluate_bound_scenario(
            BoundScenario(function="gaussian1", q=5.0, knots=KNOTS)
        )
        assert not result.converged
        assert result.algorithm1 == float("inf")


class TestFig5Determinism:
    def test_inline_vs_pooled_bit_identical(self):
        qs = default_q_grid(points=5)
        scenarios = q_sweep_scenarios(qs, knots=KNOTS)
        inline = run_batch(evaluate_bound_scenario, scenarios)
        pooled = run_batch(
            evaluate_bound_scenario, scenarios, max_workers=3, chunk_size=2
        )
        assert fig5_data_from_results(qs, inline) == fig5_data_from_results(
            qs, pooled
        )

    def test_engine_batch_matches_direct_loop(self):
        qs = [40.0, 400.0]
        scenarios = q_sweep_scenarios(qs, knots=KNOTS)
        batch = run_batch(evaluate_bound_scenario, scenarios)
        for scenario, result in zip(scenarios, batch):
            f = fig4_delay_function(scenario.function, knots=KNOTS)
            assert (
                result.algorithm1
                == compare_bounds(f, scenario.q).algorithm1.total_delay
            )


class TestStudyScenarios:
    SCENARIO = StudyScenario(
        utilization=0.5,
        seed=321,
        n_tasks=4,
        q_fraction=0.5,
        delay_height=0.05,
        methods=("oblivious", "algorithm1", "eq4"),
    )

    def test_worker_is_deterministic(self):
        assert evaluate_study_scenario(self.SCENARIO) == evaluate_study_scenario(
            self.SCENARIO
        )

    def test_verdicts_align_with_methods(self):
        result = evaluate_study_scenario(self.SCENARIO)
        assert len(result.accepted) == len(self.SCENARIO.methods)

    def test_acceptance_study_inline_vs_pooled(self):
        utilizations = [0.3, 0.8]
        methods = ["oblivious", "algorithm1", "eq4"]
        scenarios = study_scenarios(
            utilizations, methods, n_tasks=4, sets_per_point=4,
            q_fraction=0.5, delay_height=0.05, seed=2012,
        )
        inline = run_batch(evaluate_study_scenario, scenarios)
        pooled = run_batch(
            evaluate_study_scenario, scenarios, max_workers=3, chunk_size=1
        )
        assert fold_study_points(
            utilizations, methods, 4, inline
        ) == fold_study_points(utilizations, methods, 4, pooled)

    def test_oblivious_dominates(self):
        methods = ["oblivious", "algorithm1", "eq4"]
        scenarios = study_scenarios(
            [0.6], methods, n_tasks=4, sets_per_point=6,
            q_fraction=0.5, delay_height=0.05, seed=2012,
        )
        (point,) = fold_study_points(
            [0.6], methods, 6, run_batch(evaluate_study_scenario, scenarios)
        )
        assert (
            point.ratios["oblivious"]
            >= point.ratios["algorithm1"]
            >= point.ratios["eq4"]
        )
