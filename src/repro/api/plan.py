"""Scenario plans: what grid a record-streaming workload evaluates.

The ``sweep`` and ``campaign`` workloads share a shape: resolved
parameters determine a *manifest* (the grid-regeneration record a store
keeps), a concrete ordered scenario list, the family worker/decoder
that evaluates it, and a default sink name.  :func:`plan_scenarios`
computes that bundle once, from parameters alone — no execution — and
is the single source of truth used by

* the workload runners in :mod:`repro.api.workloads` (which feed the
  plan into :func:`repro.api.execution.execute_scenarios`), and
* the :mod:`repro.serve` job server (which evaluates the same plan
  against its shared store and streams the records back) — so a served
  request can never compile to a different grid than a local run of
  the same request.

The plan's scenarios are exactly what
:func:`repro.api.execution.manifest_scenarios` rebuilds from the
plan's manifest; ``tests/serve`` asserts the equivalence.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.utils.checks import require

#: Workloads that can be planned (and therefore served).
PLANNABLE_WORKLOADS = ("sweep", "campaign")


@dataclass(frozen=True)
class ScenarioPlan:
    """One record-streaming workload invocation, fully resolved.

    Attributes:
        workload: The planned workload name (``sweep``/``campaign``).
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


def _plan_sweep(params: Mapping[str, Any]) -> ScenarioPlan:
    from repro.engine import (
        bound_result_from_record,
        evaluate_bound_scenario,
        q_sweep_scenarios,
    )
    from repro.engine.sweeps import bound_context_key
    from repro.experiments import default_q_grid

    points, knots = params["points"], params["knots"]
    qs = default_q_grid(points=points)
    return ScenarioPlan(
        workload="sweep",
        manifest={"kind": "qsweep", "points": points, "knots": knots},
        scenarios=q_sweep_scenarios(qs, knots=knots),
        worker=evaluate_bound_scenario,
        group_by=bound_context_key,
        decode=bound_result_from_record,
        sink_name="sweep",
    )


def _plan_campaign(params: Mapping[str, Any]) -> ScenarioPlan:
    from repro.api.workloads import campaign_overrides
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


def plan_scenarios(
    workload: str, params: Mapping[str, Any]
) -> ScenarioPlan:
    """Resolve one plannable workload's parameters into its plan.

    Args:
        workload: ``"sweep"`` or ``"campaign"`` (see
            :data:`PLANNABLE_WORKLOADS`).
        params: The workload's *resolved* parameters
            (:meth:`repro.api.workloads.Workload.resolve_params`).

    Raises:
        ValueError: for non-plannable workloads — figure workloads fold
            their records into artifacts and are not servable streams.
    """
    require(
        workload in PLANNABLE_WORKLOADS,
        f"workload {workload!r} has no scenario plan; plannable "
        f"workloads: {', '.join(PLANNABLE_WORKLOADS)}",
    )
    if workload == "sweep":
        return _plan_sweep(params)
    return _plan_campaign(params)
