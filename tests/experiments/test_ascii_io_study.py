"""Tests for ASCII rendering, CSV output and the schedulability study."""

import math

import pytest

from repro.engine import evaluate_study_scenario, run_batch
from repro.experiments import (
    fold_study_points,
    line_plot,
    render_table,
    results_dir,
    study_scenarios,
    study_series,
    write_csv,
)


class TestRenderTable:
    def test_basic_alignment(self):
        text = render_table(
            ["name", "value"], [["a", 1.0], ["long-name", 123.456]]
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]
        # All lines padded to consistent width per column.
        assert lines[1].count("-") >= len("long-name")

    def test_inf_rendering(self):
        text = render_table(["x"], [[math.inf]])
        assert "inf" in text

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            render_table([], [])


class TestLinePlot:
    def test_contains_legend_and_points(self):
        text = line_plot(
            {"a": [(1, 1), (2, 2)], "b": [(1, 2), (2, 1)]},
            width=32,
            height=8,
        )
        assert "o = a" in text
        assert "x = b" in text
        assert "o" in text.splitlines()[0] or any(
            "o" in line for line in text.splitlines()
        )

    def test_log_scale_skips_nonpositive(self):
        text = line_plot(
            {"a": [(1, 0.0), (2, 10.0), (3, 100.0)]},
            width=32,
            height=8,
            log_y=True,
        )
        assert "(log y)" in text

    def test_empty_series(self):
        text = line_plot({"a": []}, width=32, height=8, title="t")
        assert "no finite points" in text

    def test_size_validation(self):
        with pytest.raises(ValueError):
            line_plot({"a": [(0, 0)]}, width=4, height=2)


class TestCsv:
    def test_write_and_readback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = write_csv("out.csv", ["a", "b"], [(1, 2), (3, 4)])
        assert path.read_text().splitlines() == ["a,b", "1,2", "3,4"]
        assert results_dir() == tmp_path

    def test_extension_enforced(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        with pytest.raises(ValueError):
            write_csv("out.txt", ["a"], [])

    def test_arity_enforced(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        with pytest.raises(ValueError):
            write_csv("out.csv", ["a"], [(1, 2)])


class TestAcceptanceStudy:
    @pytest.fixture(scope="class")
    def points(self):
        utilizations = [0.3, 0.8]
        methods = ["oblivious", "algorithm1", "eq4"]
        scenarios = study_scenarios(
            utilizations, methods, n_tasks=4, sets_per_point=12,
            q_fraction=0.5, delay_height=0.05, seed=7,
        )
        results = run_batch(evaluate_study_scenario, scenarios)
        return fold_study_points(utilizations, methods, 12, results)

    def test_shape(self, points):
        assert len(points) == 2
        for p in points:
            assert set(p.ratios) == {"oblivious", "algorithm1", "eq4"}
            for r in p.ratios.values():
                assert 0.0 <= r <= 1.0

    def test_method_ordering(self, points):
        """oblivious >= algorithm1 >= eq4 at every level."""
        for p in points:
            assert p.ratios["oblivious"] >= p.ratios["algorithm1"]
            assert p.ratios["algorithm1"] >= p.ratios["eq4"]

    def test_acceptance_decreases_with_utilization(self, points):
        for method in ("oblivious", "algorithm1"):
            assert points[0].ratios[method] >= points[1].ratios[method]

    def test_series_conversion(self, points):
        series = study_series(points)
        assert set(series) == {"oblivious", "algorithm1", "eq4"}
        assert series["oblivious"][0] == (
            0.3,
            points[0].ratios["oblivious"],
        )

    def test_validation(self):
        grid = dict(
            methods=["oblivious"], n_tasks=4, q_fraction=0.5,
            delay_height=0.05, seed=7,
        )
        with pytest.raises(ValueError):
            study_scenarios(utilizations=[], sets_per_point=12, **grid)
        with pytest.raises(ValueError):
            study_scenarios(utilizations=[0.5], sets_per_point=0, **grid)
