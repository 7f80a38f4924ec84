"""Tests for the Figure 4/5 generators and CSV output."""

import math

import pytest

from repro.engine import evaluate_bound_scenario, q_sweep_scenarios, run_batch
from repro.experiments import (
    FIG4_NAMES,
    default_q_grid,
    fig5_data_from_results,
    generate_fig4,
    write_fig4_csv,
    write_fig5_csv,
)


def _fig5_data(qs, knots):
    """Figure 5 over an arbitrary Q grid: the engine batch, folded."""
    scenarios = q_sweep_scenarios(qs, knots=knots)
    return fig5_data_from_results(
        qs, run_batch(evaluate_bound_scenario, scenarios)
    )


class TestFig4Generation:
    def test_sampling_shape(self):
        data = generate_fig4(samples=41, knots=256)
        assert len(data.ts) == 41
        assert set(data.series) == set(FIG4_NAMES)
        assert all(len(v) == 41 for v in data.series.values())

    def test_rows_align(self):
        data = generate_fig4(samples=11, knots=128)
        rows = data.as_rows()
        assert len(rows) == 11
        assert rows[0][0] == 0.0
        assert len(rows[0]) == 1 + len(FIG4_NAMES)

    def test_csv_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        data = generate_fig4(samples=5, knots=64)
        path = write_fig4_csv(data)
        content = path.read_text().splitlines()
        assert content[0] == "t,gaussian1,gaussian2,bimodal"
        assert len(content) == 6

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            generate_fig4(samples=1)


class TestQGrid:
    def test_default_grid_is_log_spaced(self):
        grid = default_q_grid(points=10)
        assert len(grid) == 10
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)

    def test_bounds(self):
        grid = default_q_grid(q_min=12.0, q_max=2000.0, points=5)
        assert grid[0] == pytest.approx(12.0)
        assert grid[-1] == pytest.approx(2000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_q_grid(q_min=10.0, q_max=5.0)
        with pytest.raises(ValueError):
            default_q_grid(points=1)


class TestFig5Generation:
    @pytest.fixture(scope="class")
    def data(self):
        return _fig5_data([15.0, 40.0, 120.0, 700.0, 2000.0], knots=512)

    def test_soa_identical_across_functions(self, data):
        # Verified internally; spot-check via the row structure.
        for row in data.rows:
            assert math.isfinite(row.state_of_the_art)

    def test_algorithm1_below_soa_everywhere(self, data):
        for row in data.rows:
            for name in FIG4_NAMES:
                assert row.algorithm1[name] <= row.state_of_the_art + 1e-9

    def test_headline_gap_at_small_q(self, data):
        """The paper's claim: 'considerably less pessimistic ...
        specially for smaller values of Qi'."""
        first = data.rows[0]  # Q = 15
        for name in FIG4_NAMES:
            assert first.state_of_the_art / first.algorithm1[name] > 10.0

    def test_narrow_function_gains_most(self, data):
        first = data.rows[0]
        assert (
            first.algorithm1["gaussian1"]
            < first.algorithm1["gaussian2"]
            < first.algorithm1["bimodal"]
        )

    def test_large_q_converges_to_single_preemption(self, data):
        last = data.rows[-1]  # Q = 2000 = C/2
        for name in FIG4_NAMES:
            # One preemption at most: bounded by max f = 10 (+tiny).
            assert last.algorithm1[name] <= 10.0 + 1e-6

    def test_series_shape(self, data):
        series = data.series()
        assert set(series) == set(FIG4_NAMES) | {"state_of_the_art"}
        for points in series.values():
            qs = [q for q, _ in points]
            assert qs == sorted(qs)

    def test_csv_written(self, tmp_path, monkeypatch, data):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = write_fig5_csv(data)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "q,alg1_gaussian1,alg1_gaussian2,alg1_bimodal,state_of_the_art"
        )
        assert len(lines) == 1 + len(data.rows)

    def test_divergent_q_handled(self):
        # Q below max f: both methods diverge; rows keep inf.
        data = _fig5_data([5.0], knots=128)
        row = data.rows[0]
        assert math.isinf(row.state_of_the_art)
        assert all(math.isinf(v) for v in row.algorithm1.values())
