"""Scenario plans: what grid a workload evaluates, and how it is folded.

Every grid workload — the figures ``fig4`` and ``fig5``, the acceptance
``study``, the engine ``sweep`` and declarative ``campaign`` runs —
has one shape: resolved parameters determine a *manifest* (the
grid-regeneration record a store keeps), a concrete ordered scenario
list, the family worker that evaluates it (with its grouping key and
record decoder), a default sink name and, for the figure-shaped
workloads, a *fold* turning the full result list into the typed payload
and the artifact file.  :func:`plan_scenarios` computes that bundle
once, from parameters alone — no execution — and each grid is built by
exactly one planner here.  The plans are the
single source of truth for

* the one grid runner in :mod:`repro.api.workloads`, which feeds the
  plan into :func:`repro.api.execution.execute_scenarios` and then
  streams (``fold is None``) or folds the results;
* :func:`repro.api.execution.manifest_scenarios`, which rebuilds a
  store's grid from its manifest ``kind`` (``repro merge --out``);
* the :mod:`repro.serve` job server, which evaluates the streaming
  plans (:data:`SERVABLE_WORKLOADS`) against its shared store — so a
  served request can never compile to a different grid than a local
  run of the same request.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from repro.utils.checks import require

#: ``(results in scenario order, artifact directory or None for the
#: default) -> (payload, artifact paths)``.
Fold = Callable[[list[Any], Path | None], tuple[Any, tuple[str, ...]]]


@dataclass(frozen=True)
class ScenarioPlan:
    """One grid workload invocation, fully resolved.

    Attributes:
        workload: The planned workload name.
        manifest: Grid-regeneration parameters (what a store records).
        scenarios: The ordered scenario grid.
        worker: Module-level ``scenario -> result`` callable.
        group_by: Shared-artifact grouping key (family ``context_key``).
        decode: Record decoder for store-served results.
        sink_name: Default artifact stem (``results/<sink_name>.<fmt>``).
        extra: Rendering details (campaign/family names).
        batch_worker: Always ``None``.  Kept only because the repo
            benchmark (``perfbench/workloads.py``) still passes it to
            :func:`repro.api.execute_scenarios`.
        fold: Turns the full grid's results into the payload and the
            artifact files; ``None`` for the streaming workloads, whose
            records go to sinks instead.
    """

    workload: str
    manifest: dict[str, Any]
    scenarios: list[Any]
    worker: Callable[[Any], Any]
    group_by: Callable[[Any], Hashable] | None
    decode: Callable[[Mapping[str, Any]], Any] | None
    sink_name: str
    extra: dict[str, Any] = field(default_factory=dict)
    batch_worker: None = None
    fold: Fold | None = None


def _plan_fig4(params: Mapping[str, Any]) -> ScenarioPlan:
    from repro.engine.registry import record_decoder
    from repro.experiments.fig4 import (
        Fig4Data,
        Fig4Scenario,
        evaluate_fig4_scenario,
    )

    samples, knots = params["samples"], params["knots"]
    return ScenarioPlan(
        workload="fig4",
        manifest={"kind": "fig4", "samples": samples, "knots": knots},
        scenarios=[Fig4Scenario(samples=samples, knots=knots)],
        worker=evaluate_fig4_scenario,
        group_by=None,
        decode=record_decoder(Fig4Data),
        sink_name="fig4",
        fold=_fold_fig4,
    )


def _fold_fig4(
    results: list[Any], directory: Path | None
) -> tuple[Any, tuple[str, ...]]:
    from repro.experiments.fig4 import write_fig4_csv

    (data,) = results
    return data, (str(write_fig4_csv(data, directory=directory)),)


def _plan_q_sweep(
    params: Mapping[str, Any], workload: str = "sweep"
) -> ScenarioPlan:
    """The paper's Q grid: ``sweep`` streams it, ``fig5`` folds it."""
    from repro.engine import get_family, q_sweep_scenarios
    from repro.experiments import default_q_grid

    points, knots = params["points"], params["knots"]
    qs = default_q_grid(points=points)
    family = get_family("bound")
    return ScenarioPlan(
        workload=workload,
        manifest={"kind": "qsweep", "points": points, "knots": knots},
        scenarios=q_sweep_scenarios(qs, knots=knots),
        worker=family.worker,
        group_by=family.context_key,
        decode=family.decoder,
        sink_name=workload,
        fold=partial(_fold_fig5, qs) if workload == "fig5" else None,
    )


def _fold_fig5(
    qs: list[float], results: list[Any], directory: Path | None
) -> tuple[Any, tuple[str, ...]]:
    from repro.experiments.fig5 import fig5_data_from_results, write_fig5_csv

    data = fig5_data_from_results(qs, results)
    return data, (str(write_fig5_csv(data, directory=directory)),)


def _plan_study(params: Mapping[str, Any]) -> ScenarioPlan:
    from repro.engine import get_family
    from repro.experiments.schedulability_study import (
        reference_study_scenarios,
    )

    tasks, sets = params["tasks"], params["sets"]
    family = get_family("study")
    return ScenarioPlan(
        workload="study",
        manifest={"kind": "study", "tasks": tasks, "sets": sets},
        scenarios=reference_study_scenarios(tasks, sets),
        worker=family.worker,
        group_by=family.context_key,
        decode=family.decoder,
        sink_name="study",
        fold=partial(_fold_study, sets),
    )


def _fold_study(
    sets: int, results: list[Any], directory: Path | None
) -> tuple[Any, tuple[str, ...]]:
    from repro.experiments.schedulability_study import (
        STUDY_METHODS,
        STUDY_UTILIZATIONS,
        fold_study_points,
    )

    points = fold_study_points(
        list(STUDY_UTILIZATIONS), list(STUDY_METHODS), sets, results
    )
    return points, ()


def campaign_overrides(raw: Any) -> dict[str, Any]:
    """Normalize the ``set`` parameter: a mapping, ``(key, value)``
    pairs, or CLI-style ``key=value`` strings."""
    from repro.campaign import parse_set_overrides

    if not raw:
        return {}
    if isinstance(raw, Mapping):
        return dict(raw)
    items = list(raw)
    if all(isinstance(item, str) for item in items):
        return parse_set_overrides(items)
    return {key: value for key, value in items}


def _plan_campaign(params: Mapping[str, Any]) -> ScenarioPlan:
    from repro.campaign import compile_campaign, resolve_spec

    spec = resolve_spec(params["spec"], campaign_overrides(params["set"]))
    compiled = compile_campaign(spec)
    return ScenarioPlan(
        workload="campaign",
        manifest={"kind": "campaign", "spec": compiled.spec},
        scenarios=compiled.scenarios,
        worker=compiled.family.worker,
        group_by=compiled.family.context_key,
        decode=compiled.family.decoder,
        sink_name=f"campaign-{compiled.name}",
        extra={
            "campaign": compiled.name,
            "family": compiled.family.name,
        },
    )


_PLANNERS: dict[str, Callable[[Mapping[str, Any]], ScenarioPlan]] = {
    "fig4": _plan_fig4,
    "fig5": partial(_plan_q_sweep, workload="fig5"),
    "study": _plan_study,
    "sweep": _plan_q_sweep,
    "campaign": _plan_campaign,
}

#: Workloads that can be planned: every grid workload.
PLANNABLE_WORKLOADS = tuple(_PLANNERS)

#: The streaming plans (``fold is None``): what the job server admits.
SERVABLE_WORKLOADS = ("sweep", "campaign")

#: Store manifest ``kind`` -> the workload whose planner rebuilds it.
MANIFEST_WORKLOADS = {
    "fig4": "fig4",
    "qsweep": "sweep",
    "study": "study",
    "campaign": "campaign",
}


def plan_scenarios(
    workload: str, params: Mapping[str, Any]
) -> ScenarioPlan:
    """Resolve one grid workload's parameters into its plan.

    Args:
        workload: One of :data:`PLANNABLE_WORKLOADS`.
        params: The workload's *resolved* parameters
            (:meth:`repro.api.workloads.Workload.resolve_params`).

    Raises:
        ValueError: for workloads without a scenario grid.
    """
    require(
        workload in _PLANNERS,
        f"workload {workload!r} has no scenario plan; plannable "
        f"workloads: {', '.join(PLANNABLE_WORKLOADS)}",
    )
    return _PLANNERS[workload](params)
