"""FIG5: the paper's headline evaluation — cumulative preemption-delay
bound vs Q for Algorithm 1 (three functions) and the Eq. 4 baseline.

Artifacts: ``results/fig5.csv``, ``results/fig5.txt`` (log-scale ASCII
plot) and ``results/fig5_summary.txt`` (median improvement factors).
"""

from conftest import save_text, scaled

from repro.api import RunRequest, Workbench
from repro.experiments import improvement_summary, line_plot, render_table
from repro.experiments.io import RESULTS_DIR_ENV


def test_fig5_sweep(benchmark, artifacts_dir, monkeypatch):
    monkeypatch.setenv(RESULTS_DIR_ENV, str(artifacts_dir))
    request = RunRequest.make("fig5", knots=scaled(2048, 512))
    data = benchmark.pedantic(
        Workbench().run, args=(request,), rounds=1, iterations=1
    ).payload

    plot = line_plot(
        data.series(),
        width=72,
        height=20,
        log_y=True,
        title=(
            "Figure 5 - cumulative preemption delay vs Q "
            "(log y; state of the art = Eq. 4)"
        ),
    )
    save_text(artifacts_dir, "fig5.txt", plot)
    print()
    print(plot)

    summary = improvement_summary(data)
    table = render_table(
        ["function", "median SOA / Algorithm 1"],
        [[name, factor] for name, factor in sorted(summary.items())],
    )
    save_text(artifacts_dir, "fig5_summary.txt", table)
    print()
    print(table)

    # The paper's qualitative claims, asserted on the real sweep:
    for row in data.rows:
        for value in row.algorithm1.values():
            assert value <= row.state_of_the_art + 1e-9
    small_q = data.rows[0]
    for value in small_q.algorithm1.values():
        assert small_q.state_of_the_art / value > 10.0
