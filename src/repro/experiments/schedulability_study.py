"""EXT-D: end-to-end schedulability study.

The paper stops at per-task delay bounds; this extension closes the loop:
generate random task sets, derive NPR lengths, attach synthetic delay
functions, and measure the acceptance ratio of each delay-aware test as
utilization grows.  Expected ordering: ``oblivious`` (unsafe, most
accepting) >= ``algorithm1`` >= ``eq4`` (most pessimistic of the
inflation tests) — the gap between the last two is the paper's
contribution expressed as schedulability.

The utilization × task-set matrix is flattened into
:class:`repro.engine.StudyScenario` batches (:func:`study_scenarios`);
the ``study`` workload of :mod:`repro.api` evaluates the reference grid
and :func:`fold_study_points` folds it into acceptance ratios.  Every
scenario carries its own seed (``seed + level * 10_000 + k``, unchanged
from the sequential implementation), so acceptance ratios are
bit-identical for any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.sweeps import StudyScenario
from repro.utils.checks import require

#: The utilization grid of the reference (CLI) acceptance study.
STUDY_UTILIZATIONS = (0.3, 0.5, 0.65, 0.8, 0.9)

#: The test methods of the reference (CLI) acceptance study.
STUDY_METHODS = ("oblivious", "busquets", "algorithm1", "eq4")


@dataclass(frozen=True, slots=True)
class StudyPoint:
    """Acceptance ratios at one utilization level.

    Attributes:
        utilization: Target total utilization of the generated sets.
        ratios: Mapping method name -> fraction of sets accepted.
        generated: Number of task sets generated at this level.
    """

    utilization: float
    ratios: dict[str, float]
    generated: int


def study_scenarios(
    utilizations: list[float],
    methods: list[str],
    n_tasks: int,
    sets_per_point: int,
    q_fraction: float,
    delay_height: float,
    seed: int,
) -> list[StudyScenario]:
    """Flatten the utilization × set matrix into engine scenarios.

    Scenario order is level-major (all sets of ``utilizations[0]``
    first); seeds replicate the sequential implementation:
    ``seed + level * 10_000 + k``, kept for bit-compatibility with the
    pre-engine artifacts.  That formula is collision-free only for
    ``sets_per_point < 10_000`` (enforced here); grids beyond that
    should derive seeds with :func:`repro.engine.derive_seed`.
    """
    require(bool(utilizations), "need at least one utilization level")
    require(sets_per_point > 0, "sets_per_point must be > 0")
    require(
        sets_per_point < 10_000,
        "the legacy seed formula collides at sets_per_point >= 10_000; "
        "build scenarios with repro.engine.derive_seed instead",
    )
    return [
        StudyScenario(
            utilization=utilization,
            seed=seed + level * 10_000 + k,
            n_tasks=n_tasks,
            q_fraction=q_fraction,
            delay_height=delay_height,
            methods=tuple(methods),
        )
        for level, utilization in enumerate(utilizations)
        for k in range(sets_per_point)
    ]


def reference_study_scenarios(
    n_tasks: int, sets_per_point: int
) -> list[StudyScenario]:
    """The CLI ``study`` command's scenario grid.

    The fixed utilization levels, methods, fractions and base seed of
    ``python -m repro study`` over the caller's ``(n_tasks,
    sets_per_point)`` — the grid a ``{"kind": "study"}`` store manifest
    regenerates (see :func:`repro.api.execution.manifest_scenarios`).
    """
    return study_scenarios(
        utilizations=list(STUDY_UTILIZATIONS),
        methods=list(STUDY_METHODS),
        n_tasks=n_tasks,
        sets_per_point=sets_per_point,
        q_fraction=0.5,
        delay_height=0.05,
        seed=2012,
    )


def fold_study_points(
    utilizations: list[float],
    methods: list[str],
    sets_per_point: int,
    results: list,
) -> list[StudyPoint]:
    """Fold level-major :class:`~repro.engine.StudyResult` batches into
    per-utilization acceptance ratios.

    ``results`` must be in the stream order of :func:`study_scenarios`
    (all sets of ``utilizations[0]`` first).
    """
    require(
        len(results) == len(utilizations) * sets_per_point,
        f"expected {len(utilizations) * sets_per_point} study results, "
        f"got {len(results)}",
    )
    points: list[StudyPoint] = []
    for level, utilization in enumerate(utilizations):
        batch = results[
            level * sets_per_point : (level + 1) * sets_per_point
        ]
        accepted = {m: 0 for m in methods}
        for result in batch:
            for method, verdict in zip(methods, result.accepted):
                if verdict:
                    accepted[method] += 1
        points.append(
            StudyPoint(
                utilization=utilization,
                ratios={
                    m: accepted[m] / sets_per_point for m in methods
                },
                generated=sets_per_point,
            )
        )
    return points


def study_campaign_spec(
    utilizations: list[float] | None = None,
    sets_per_point: int = 40,
    n_tasks: int = 6,
    q_fraction: float = 0.5,
    delay_height: float = 0.05,
    seed: int = 2012,
    methods: list[str] | None = None,
) -> dict:
    """The acceptance study as a declarative campaign spec.

    The campaign form draws per-scenario seeds from the SplitMix64
    ``seeds`` sampler (one shared seed stream across utilization
    levels) instead of the legacy ``seed + level * 10_000 + k``
    formula, so it scales past 10^4 sets per point; ratios therefore
    differ statistically (not structurally) from
    :func:`study_scenarios` with the same arguments.
    """
    from repro.sched.crpd_rta import METHODS

    utilizations = (
        utilizations
        if utilizations is not None
        else [0.3, 0.5, 0.65, 0.8, 0.9]
    )
    return {
        "name": "study",
        "description": "FP delay-aware acceptance ratios vs utilization",
        "family": "study",
        "axes": {
            "utilization": {"grid": list(utilizations)},
            "seed": {"seeds": {"base": seed, "count": sets_per_point}},
        },
        "defaults": {
            "n_tasks": n_tasks,
            "q_fraction": q_fraction,
            "delay_height": delay_height,
            "methods": list(methods) if methods is not None else list(METHODS),
        },
    }


def study_series(
    points: list[StudyPoint],
) -> dict[str, list[tuple[float, float]]]:
    """Plot-ready series: one curve per method."""
    series: dict[str, list[tuple[float, float]]] = {}
    for point in points:
        for method, ratio in point.ratios.items():
            series.setdefault(method, []).append(
                (point.utilization, ratio)
            )
    return series
