"""FIG4: regenerate the paper's Figure 4 (the three benchmark ``f_i``).

Artifacts: ``results/fig4.csv`` (sampled curves) and
``results/fig4.txt`` (ASCII rendering).
"""

from conftest import save_text, scaled

from repro.api import RunRequest, Workbench
from repro.experiments import line_plot
from repro.experiments.io import RESULTS_DIR_ENV


def test_fig4_generate(benchmark, artifacts_dir, monkeypatch):
    monkeypatch.setenv(RESULTS_DIR_ENV, str(artifacts_dir))
    request = RunRequest.make(
        "fig4", samples=scaled(401, 101), knots=scaled(2048, 256)
    )
    data = benchmark(Workbench().run, request).payload

    series = {
        name: list(zip(data.ts, values))
        for name, values in data.series.items()
    }
    plot = line_plot(
        series,
        width=72,
        height=18,
        title="Figure 4 - synthetic preemption delay functions f_i(t)",
    )
    save_text(artifacts_dir, "fig4.txt", plot)
    print()
    print(plot)

    assert set(data.series) == {"gaussian1", "gaussian2", "bimodal"}
    for values in data.series.values():
        assert max(values) <= 10.0 + 1e-9
