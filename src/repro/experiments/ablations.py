"""Ablation experiments (EXT-B, EXT-C; see docs/paper_mapping.md).

* :func:`interpretation_sweep` — how the Figure 5 conclusions react to
  the three readings of the paper's (inconsistent) Figure 4 parameters.
* :func:`knot_resolution_sweep` — sensitivity of Algorithm 1's bound to
  the piecewise resolution of ``f`` (coarser upper steps = safer but
  larger bounds).
* :func:`preemption_cap_sweep` — the paper's future-work item (ii):
  capping the number of preemptions by the interferers' release pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.floating_npr import floating_npr_delay_bound
from repro.experiments.fig5 import Fig5Data, fig5_data_from_results
from repro.experiments.functions_fig4 import (
    FIG4_NAMES,
    INTERPRETATIONS,
    fig4_delay_function,
)
from repro.utils.checks import require


def interpretation_sweep(
    qs: list[float],
    knots: int = 1024,
) -> dict[str, Fig5Data]:
    """Figure 5 regenerated under every parameter interpretation.

    Each interpretation runs as a ``bound`` family campaign through the
    facade, so its records also land in the results directory as
    ``campaign-interpretation-<name>.jsonl``.
    """
    from repro.api import RunRequest, Workbench

    sweeps = {}
    for interpretation in INTERPRETATIONS:
        result = Workbench().run(
            RunRequest.family(
                "bound",
                axes={
                    "q": {"grid": list(qs)},
                    "function": {"grid": list(FIG4_NAMES)},
                },
                defaults={"interpretation": interpretation, "knots": knots},
                name=f"interpretation-{interpretation}",
            )
        )
        sweeps[interpretation] = fig5_data_from_results(
            list(qs), list(result.records), interpretation
        )
    return sweeps


@dataclass(frozen=True, slots=True)
class ResolutionPoint:
    """Bound at one function resolution."""

    knots: int
    bound: float


def knot_resolution_sweep(
    q: float,
    knots_list: list[int],
    name: str = "gaussian2",
) -> list[ResolutionPoint]:
    """Algorithm 1's bound as the PWC resolution of ``f`` varies.

    Because every resolution is an *upper* step of the same closed form,
    the bound decreases (weakly) with finer resolution; the sweep
    quantifies how quickly it converges.
    """
    require(bool(knots_list), "need at least one resolution")
    points = []
    for knots in knots_list:
        f = fig4_delay_function(name, knots=knots)
        bound = floating_npr_delay_bound(f, q).total_delay
        points.append(ResolutionPoint(knots=knots, bound=bound))
    return points


@dataclass(frozen=True, slots=True)
class CapPoint:
    """Bound with a given preemption cap."""

    cap: int | None
    bound: float


def preemption_cap_sweep(
    q: float,
    caps: list[int],
    name: str = "gaussian2",
    knots: int = 1024,
) -> list[CapPoint]:
    """Algorithm 1 with the release-pattern preemption cap (future work
    item (ii)): the bound with cap k never exceeds the uncapped bound
    and grows monotonically with k."""
    f = fig4_delay_function(name, knots=knots)
    unlimited = floating_npr_delay_bound(f, q).total_delay
    points = [CapPoint(cap=None, bound=unlimited)]
    for cap in sorted(caps):
        require(cap >= 0, f"cap must be >= 0, got {cap}")
        bound = floating_npr_delay_bound(f, q, max_preemptions=cap).total_delay
        points.append(CapPoint(cap=cap, bound=bound))
    return points


def improvement_summary(data: Fig5Data) -> dict[str, float]:
    """Median SOA/Algorithm-1 improvement factor per benchmark function."""
    factors: dict[str, list[float]] = {}
    for row in data.rows:
        if not math.isfinite(row.state_of_the_art):
            continue
        for name, value in row.algorithm1.items():
            if value > 0 and math.isfinite(value):
                factors.setdefault(name, []).append(
                    row.state_of_the_art / value
                )
    result = {}
    for name, values in factors.items():
        values.sort()
        result[name] = values[len(values) // 2]
    return result
