"""EXT-D: acceptance ratio vs utilization for the delay-aware tests.

Runs the ``study`` workload: the reference grid of utilization levels
and methods (:data:`repro.experiments.STUDY_UTILIZATIONS` /
:data:`~repro.experiments.STUDY_METHODS`) at five tasks per set.

Artifact: ``results/schedulability_study.txt`` (table + ASCII plot).
"""

from conftest import save_text, scaled

from repro.api import RunRequest, Workbench
from repro.experiments import (
    STUDY_METHODS,
    line_plot,
    render_table,
    study_series,
)

_METHODS = list(STUDY_METHODS)


def test_acceptance_study(benchmark, artifacts_dir):
    request = RunRequest.make("study", tasks=5, sets=scaled(30, 10))
    points = benchmark.pedantic(
        Workbench().run, args=(request,), rounds=1, iterations=1
    ).payload

    rows = [
        [p.utilization, *(p.ratios[m] for m in _METHODS)] for p in points
    ]
    table = render_table(["U", *_METHODS], rows)
    plot = line_plot(
        study_series(points),
        width=64,
        height=14,
        title="Acceptance ratio vs utilization (EXT-D)",
    )
    save_text(artifacts_dir, "schedulability_study.txt", table + "\n\n" + plot)
    print()
    print(table)
    print()
    print(plot)

    for p in points:
        assert p.ratios["oblivious"] >= p.ratios["algorithm1"]
        assert p.ratios["algorithm1"] >= p.ratios["eq4"]
