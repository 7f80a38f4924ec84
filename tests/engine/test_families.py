"""Tests for the scenario-family registry and the sim/EDF families."""

import json
from dataclasses import fields

import pytest

from repro.engine import (
    EdfStudyScenario,
    ScenarioFamily,
    SimScenario,
    as_record,
    evaluate_edf_study_scenario,
    evaluate_sim_scenario,
    family_names,
    get_family,
    register_family,
    run_batch,
)
from repro.sched import EDF_METHODS, edf_delay_aware


class TestRegistry:
    def test_builtin_families_registered(self):
        assert set(family_names()) >= {"bound", "study", "sim", "edf-study"}

    def test_unknown_family_lists_known_ones(self):
        with pytest.raises(ValueError, match="registered families"):
            get_family("nope")

    def test_family_is_complete(self):
        for name in family_names():
            family = get_family(name)
            assert callable(family.worker)
            assert callable(family.decoder)
            assert family.summary
            # Registration accepts an empty field_help (test families);
            # every built-in axis must still be documented.
            documented = dict(family.field_help)
            assert set(documented) == {
                field.name for field in fields(family.scenario_type)
            }, name
            assert all(documented.values()), name

    def test_duplicate_registration_rejected(self):
        family = get_family("sim")
        with pytest.raises(ValueError, match="already registered"):
            register_family(family)
        # replace=True is the explicit escape hatch (used here to put
        # the registry back exactly as it was).
        register_family(family, replace=True)
        assert get_family("sim") is family

    def test_custom_family_round_trip(self):
        custom = ScenarioFamily(
            name="test-custom",
            scenario_type=SimScenario,
            worker=evaluate_sim_scenario,
            summary="a test family",
        )
        register_family(custom)
        try:
            assert get_family("test-custom") is custom
        finally:
            import repro.engine.registry as registry

            del registry._FAMILIES["test-custom"]


def record_round_trip(family_name, result):
    """Sink record -> strict JSON -> decoder, as the store does it."""
    decoder = get_family(family_name).decoder
    return decoder(json.loads(json.dumps(as_record(result))))


class TestSimFamily:
    def test_worker_is_deterministic(self):
        scenario = SimScenario(utilization=0.5, seed=3)
        assert evaluate_sim_scenario(scenario) == evaluate_sim_scenario(
            scenario
        )

    def test_pooled_equals_inline(self):
        scenarios = [
            SimScenario(utilization=u, seed=s, n_tasks=3)
            for u in (0.4, 0.6)
            for s in range(3)
        ]
        inline = run_batch(evaluate_sim_scenario, scenarios)
        pooled = run_batch(
            evaluate_sim_scenario,
            scenarios,
            max_workers=2,
        )
        assert inline == pooled

    def test_bound_respected_at_sweep_scale(self):
        # Theorem 1, operationally: no simulated job may exceed its
        # static bound, for any seed the sweep reaches.
        results = [
            evaluate_sim_scenario(
                SimScenario(utilization=0.5, seed=seed, n_tasks=3)
            )
            for seed in range(5)
        ]
        assert all(r.bound_respected for r in results)
        admitted = [r for r in results if r.admitted]
        assert admitted, "expected at least one admitted task set"
        assert all(0.0 <= r.max_tightness <= 1.0 for r in admitted)

    def test_unadmitted_set_reports_empty_run(self):
        # Utilization far above 1 cannot admit an NPR assignment.
        result = evaluate_sim_scenario(
            SimScenario(utilization=0.999, seed=1, n_tasks=2)
        )
        if not result.admitted:
            assert result.checked_jobs == 0
            assert result.preemptions == 0
            assert result.bound_respected

    def test_record_round_trip(self):
        result = evaluate_sim_scenario(SimScenario(utilization=0.5, seed=3))
        assert record_round_trip("sim", result) == result

    def test_edf_policy_runs(self):
        result = evaluate_sim_scenario(
            SimScenario(utilization=0.4, seed=2, policy="edf")
        )
        assert result.bound_respected

    def test_sporadic_differs_from_periodic(self):
        periodic = evaluate_sim_scenario(
            SimScenario(utilization=0.5, seed=3)
        )
        sporadic = evaluate_sim_scenario(
            SimScenario(utilization=0.5, seed=3, sporadic=True)
        )
        assert periodic != sporadic


class TestEdfStudyFamily:
    def test_verdicts_match_direct_tests(self):
        scenario = EdfStudyScenario(utilization=0.6, seed=7)
        result = evaluate_edf_study_scenario(scenario)
        assert result.admitted, "seed 7 at U=0.6 should admit"
        # Rebuild the same prepared set and compare method by method
        # against the sched-layer API.
        from repro.npr import assign_npr_lengths
        from repro.tasks import generate_task_set
        from repro.tasks.generation import gaussian_delay_factory

        factory = gaussian_delay_factory(relative_height=0.05)
        tasks = generate_task_set(
            5, 0.6, seed=7, delay_function_factory=factory
        )
        annotated = assign_npr_lengths(tasks, policy="edf", fraction=0.5)
        expected = tuple(
            edf_delay_aware(annotated, m).schedulable
            for m in scenario.methods
        )
        assert result.accepted == expected

    def test_default_methods_are_the_edf_family(self):
        assert EdfStudyScenario(utilization=0.5, seed=0).methods == EDF_METHODS

    def test_unadmitted_counts_as_all_rejections(self):
        result = evaluate_edf_study_scenario(
            EdfStudyScenario(utilization=0.999, seed=0, n_tasks=2)
        )
        if not result.admitted:
            assert result.accepted == (False,) * len(EDF_METHODS)

    def test_record_round_trip(self):
        result = evaluate_edf_study_scenario(
            EdfStudyScenario(utilization=0.6, seed=7)
        )
        assert record_round_trip("edf-study", result) == result

    def test_worker_is_deterministic(self):
        scenario = EdfStudyScenario(utilization=0.7, seed=11)
        assert evaluate_edf_study_scenario(
            scenario
        ) == evaluate_edf_study_scenario(scenario)


class TestParameterValidationIsLoud:
    """Invalid user-supplied knobs must raise, never masquerade as
    'this task set was rejected' (regression: the infeasibility
    ``except ValueError`` used to swallow them)."""

    def test_sim_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown policy"):
            evaluate_sim_scenario(
                SimScenario(utilization=0.5, seed=0, policy="rm")
            )

    def test_sim_out_of_range_fraction_raises(self):
        with pytest.raises(ValueError, match="q_fraction"):
            evaluate_sim_scenario(
                SimScenario(utilization=0.5, seed=0, q_fraction=1.5)
            )

    def test_edf_study_out_of_range_fraction_raises(self):
        with pytest.raises(ValueError, match="q_fraction"):
            evaluate_edf_study_scenario(
                EdfStudyScenario(utilization=0.5, seed=0, q_fraction=0.0)
            )
