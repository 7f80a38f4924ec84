"""FIG5: cumulative preemption-delay bounds versus Q (the paper's
headline evaluation).

For every Q in the sweep, compute Algorithm 1's bound for each of the
three benchmark functions plus the Eq. 4 state-of-the-art bound (which is
identical for all three, since they share ``C`` and ``max f`` — asserted
here rather than assumed).  The paper plots Q from near the divergence
threshold (``Q <= max f = 10`` diverges) up to ``C/2 = 2000`` with a
logarithmic delay axis.

The sweep is the ``fig5`` workload of :mod:`repro.api`: its plan
(:func:`repro.api.plan.plan_scenarios`) is the Q grid of
:class:`repro.engine.BoundScenario` points, and
:func:`fig5_data_from_results` folds the evaluated grid into
:class:`Fig5Data` (bit-identical for any ``--jobs``, resume or shard).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.functions_fig4 import (
    FIG4_MAX,
    FIG4_NAMES,
    FIG4_WCET,
)
from repro.experiments.io import write_csv
from repro.utils.checks import require


@dataclass(frozen=True, slots=True)
class Fig5Row:
    """One Q sample of the Figure 5 sweep.

    Attributes:
        q: The NPR length.
        algorithm1: Bound per benchmark function name.
        state_of_the_art: The (shared) Eq. 4 bound.
    """

    q: float
    algorithm1: dict[str, float]
    state_of_the_art: float


@dataclass(frozen=True, slots=True)
class Fig5Data:
    """The whole sweep."""

    rows: tuple[Fig5Row, ...]
    interpretation: str

    def series(self) -> dict[str, list[tuple[float, float]]]:
        """Plot-ready series: three Algorithm 1 curves + the SOA curve."""
        result: dict[str, list[tuple[float, float]]] = {
            name: [] for name in FIG4_NAMES
        }
        result["state_of_the_art"] = []
        for row in self.rows:
            for name in FIG4_NAMES:
                value = row.algorithm1[name]
                if math.isfinite(value):
                    result[name].append((row.q, value))
            if math.isfinite(row.state_of_the_art):
                result["state_of_the_art"].append(
                    (row.q, row.state_of_the_art)
                )
        return result

    def as_rows(self) -> list[tuple]:
        """CSV rows: ``q, alg1_gaussian1, alg1_gaussian2, alg1_bimodal, soa``."""
        return [
            (
                row.q,
                *(row.algorithm1[name] for name in FIG4_NAMES),
                row.state_of_the_art,
            )
            for row in self.rows
        ]


def default_q_grid(
    q_min: float = FIG4_MAX + 2.0,
    q_max: float = FIG4_WCET / 2.0,
    points: int = 40,
) -> list[float]:
    """Log-spaced Q grid from just above the divergence threshold to C/2."""
    require(0 < q_min < q_max, "need 0 < q_min < q_max")
    require(points >= 2, "need at least two points")
    ratio = (q_max / q_min) ** (1.0 / (points - 1))
    return [q_min * ratio**k for k in range(points)]


def fig5_campaign_spec(
    points: int = 40,
    knots: int = 2048,
    interpretation: str = "literal",
) -> dict:
    """The Figure 5 grid as a declarative campaign spec.

    ``repro.campaign.compile_campaign`` turns this spec into exactly
    the scenario stream of ``q_sweep_scenarios(default_q_grid(points),
    knots=knots)`` — same floats, same order, same store keys — so
    ``python -m repro campaign fig5`` is byte-identical to
    ``python -m repro sweep`` (asserted end-to-end in the CLI tests).

    Args:
        points: Q grid points (scenarios = 3x this).
        knots: Benchmark-function resolution.
        interpretation: Benchmark parameter interpretation.
    """
    return {
        "name": "fig5",
        "description": "Algorithm 1 vs Eq. 4 over the paper's Q grid",
        "family": "bound",
        "axes": {
            "q": {
                "logspace": {
                    "start": FIG4_MAX + 2.0,
                    "stop": FIG4_WCET / 2.0,
                    "points": points,
                }
            },
            "function": {"grid": list(FIG4_NAMES)},
        },
        "defaults": {"interpretation": interpretation, "knots": knots},
    }


def fig5_data_from_results(
    qs: list[float], results: list, interpretation: str = "literal"
) -> Fig5Data:
    """Pivot q-major :class:`~repro.engine.BoundResult` batches into
    :class:`Fig5Data` rows.

    ``results`` must be in the stream order of
    :func:`repro.engine.q_sweep_scenarios` (all functions at ``qs[0]``,
    then ``qs[1]``…).  The shape-obliviousness of Eq. 4 (same bound for
    all three functions at each Q) is verified along the way.
    """
    per_q = len(FIG4_NAMES)
    require(
        len(results) == per_q * len(qs),
        f"expected {per_q * len(qs)} bound results for {len(qs)} Q "
        f"points, got {len(results)}",
    )
    rows: list[Fig5Row] = []
    for slot, q in enumerate(qs):
        batch = results[slot * per_q : (slot + 1) * per_q]
        alg1 = {r.function: r.algorithm1 for r in batch}
        soa_values = [r.state_of_the_art for r in batch]
        spread = max(soa_values) - min(soa_values)
        require(
            (math.isfinite(spread) and spread < 1e-6)
            or all(math.isinf(v) for v in soa_values),
            "Eq. 4 must give the same bound for all three functions "
            f"(got {soa_values} at Q={q})",
        )
        rows.append(
            Fig5Row(
                q=q,
                algorithm1=alg1,
                state_of_the_art=soa_values[0],
            )
        )
    return Fig5Data(rows=tuple(rows), interpretation=interpretation)


def write_fig5_csv(data: Fig5Data, filename: str = "fig5.csv", directory=None):
    """Write the sweep to the results directory (or ``directory``)."""
    headers = (
        "q",
        *(f"alg1_{name}" for name in FIG4_NAMES),
        "state_of_the_art",
    )
    return write_csv(filename, headers, data.as_rows(), directory=directory)
