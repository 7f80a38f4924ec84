"""FIG4: regenerate the paper's Figure 4 data (the three ``f`` curves)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.functions_fig4 import (
    FIG4_NAMES,
    FIG4_WCET,
    fig4_functions,
)
from repro.experiments.io import write_csv
from repro.utils.checks import require


@dataclass(frozen=True, slots=True)
class Fig4Data:
    """Sampled benchmark functions.

    Attributes:
        ts: Sample abscissae (shared by all series).
        series: Mapping function name -> sampled values.
        interpretation: Parameter interpretation used.
    """

    ts: tuple[float, ...]
    series: dict[str, tuple[float, ...]]
    interpretation: str

    def as_rows(self) -> list[tuple]:
        """CSV rows: ``t, gaussian1, gaussian2, bimodal``."""
        return [
            (t, *(self.series[name][i] for name in FIG4_NAMES))
            for i, t in enumerate(self.ts)
        ]


def generate_fig4(
    interpretation: str = "literal",
    samples: int = 401,
    knots: int = 2048,
    wcet: float = FIG4_WCET,
) -> Fig4Data:
    """Sample the three benchmark functions on a uniform grid.

    Args:
        interpretation: Parameter interpretation (see
            :mod:`repro.experiments.functions_fig4`).
        samples: Number of sample points over ``[0, C]``.
        knots: Resolution of the underlying piecewise functions.
        wcet: The common ``C``.
    """
    require(samples >= 2, "need at least two samples")
    functions = fig4_functions(interpretation, knots, wcet)
    ts = tuple(wcet * k / (samples - 1) for k in range(samples))
    series = {
        name: tuple(f.function.value(t) for t in ts)
        for name, f in functions.items()
    }
    return Fig4Data(ts=ts, series=series, interpretation=interpretation)


@dataclass(frozen=True, slots=True)
class Fig4Scenario:
    """The whole of Figure 4 as one engine scenario: the ``fig4``
    workload's one-scenario grid."""

    samples: int
    knots: int


def evaluate_fig4_scenario(scenario: Fig4Scenario) -> Fig4Data:
    """Engine worker: :func:`generate_fig4` for one scenario."""
    return generate_fig4(samples=scenario.samples, knots=scenario.knots)


def write_fig4_csv(data: Fig4Data, filename: str = "fig4.csv", directory=None):
    """Write the sampled curves to the results directory (or
    ``directory``)."""
    headers = ("t", *FIG4_NAMES)
    return write_csv(filename, headers, data.as_rows(), directory=directory)
