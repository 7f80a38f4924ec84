"""Tests for the Figure 2 counterexample and the ablation sweeps."""

import math

import pytest

from repro.engine import evaluate_bound_scenario, q_sweep_scenarios, run_batch
from repro.experiments import (
    build_figure2_function,
    fig5_data_from_results,
    improvement_summary,
    interpretation_sweep,
    knot_resolution_sweep,
    preemption_cap_sweep,
    run_figure2_demo,
)


def _fig5_data(qs, knots):
    """Figure 5 over an arbitrary Q grid: the engine batch, folded."""
    scenarios = q_sweep_scenarios(qs, knots=knots)
    return fig5_data_from_results(
        qs, run_batch(evaluate_bound_scenario, scenarios)
    )


class TestFigure2:
    def test_function_shape(self):
        f = build_figure2_function(wcet=400.0, height=60.0)
        assert f.value(50.0) == 0.0
        assert f.value(200.0) == 60.0
        assert f.max_value() == 60.0

    def test_naive_bound_is_violated_by_run(self):
        demo = run_figure2_demo()
        assert demo.naive_is_violated
        assert demo.simulated_delay > demo.naive_bound

    def test_algorithm1_still_safe(self):
        demo = run_figure2_demo()
        assert demo.algorithm1_is_safe
        assert demo.simulated_delay <= demo.algorithm1_bound

    def test_run_actually_preempts_repeatedly(self):
        demo = run_figure2_demo()
        assert demo.preemptions >= 4

    def test_parametrised_instance(self):
        demo = run_figure2_demo(q=80.0, wcet=400.0, height=50.0)
        assert demo.algorithm1_is_safe


class TestAblations:
    def test_interpretation_sweep_covers_all(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        sweeps = interpretation_sweep(qs=[50.0, 500.0], knots=128)
        assert set(sweeps) == {"literal", "sigma", "offset10"}
        assert (tmp_path / "campaign-interpretation-sigma.jsonl").exists()
        # The offset reading leaves much less room for improvement on
        # gaussian1 (its floor forces near-SOA bounds).
        literal_row = sweeps["literal"].rows[0]
        offset_row = sweeps["offset10"].rows[0]
        assert (
            offset_row.algorithm1["gaussian1"]
            > literal_row.algorithm1["gaussian1"]
        )

    def test_knot_resolution_monotone(self):
        points = knot_resolution_sweep(q=50.0, knots_list=[64, 256, 1024])
        bounds = [p.bound for p in points]
        # Finer resolution -> tighter (weakly smaller) bound.
        assert bounds[0] >= bounds[1] >= bounds[2]
        assert all(math.isfinite(b) for b in bounds)

    def test_knot_resolution_validation(self):
        with pytest.raises(ValueError):
            knot_resolution_sweep(q=50.0, knots_list=[])

    def test_preemption_cap_monotone(self):
        points = preemption_cap_sweep(q=50.0, caps=[0, 2, 5, 100], knots=256)
        uncapped = points[0].bound
        by_cap = {p.cap: p.bound for p in points[1:]}
        assert by_cap[0] == 0.0
        assert by_cap[0] <= by_cap[2] <= by_cap[5] <= by_cap[100]
        assert by_cap[100] <= uncapped + 1e-9

    def test_preemption_cap_validation(self):
        with pytest.raises(ValueError):
            preemption_cap_sweep(q=50.0, caps=[-1])

    def test_improvement_summary(self):
        data = _fig5_data([20.0, 100.0], knots=256)
        summary = improvement_summary(data)
        for name, factor in summary.items():
            assert factor >= 1.0, name
