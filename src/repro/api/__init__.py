"""The unified programmatic facade (substrate S15): one typed surface
for every workload.

Before this package, the reproduction had five parallel ways to run
the same analyses — figure generators, raw ``run_batch`` /
``run_cached_batch`` calls, the campaign compiler and hand-written CLI
subcommands — each re-implementing ``--jobs/--store/--resume/--shard``
semantics.  ``repro.api`` collapses them into one pipeline:

* a :class:`RunRequest` freezes *what* to evaluate — a workload name
  (``fig2``/``fig4``/``fig5``/``validate``/``study``/``sweep``/
  ``campaign``/``merge``) plus parameters, with
  :meth:`RunRequest.family` exposing every registered scenario family
  through inline campaign specs;
* :class:`ExecutionOptions` freezes *how* — jobs, chunking, the
  persistent store, resume, shard slice, sinks and the results
  directory — parsed once and interpreted identically everywhere
  (:mod:`repro.api.execution`);
* :meth:`Workbench.run` evaluates the request and returns a
  :class:`RunResult` — records, typed payload, manifest, artifact
  paths, cache statistics and timing.

Every workload self-describes its parameters in the registry
(:mod:`repro.api.workloads`), which is what lets :mod:`repro.cli`
generate its subcommands declaratively and ``docs/api.md`` generate
its reference tables (:mod:`repro.api.docgen`).  Every grid workload
(``fig4``, ``fig5``, ``study``, ``sweep``, ``campaign``) is planned by
:func:`repro.api.plan.plan_scenarios` and executed by one runner, which
streams the records to sinks or folds them into the figure payload and
artifact.

Quick start::

    from repro.api import RunRequest, Workbench

    result = Workbench().run(RunRequest.make("fig5", points=8, knots=256))
    print(result.artifacts, result.seconds)

    # Any registered scenario family, campaign-style:
    result = Workbench().run(RunRequest.family(
        "bound",
        axes={"q": {"grid": [50.0, 100.0]},
              "function": {"grid": ["gaussian1"]}},
        defaults={"knots": 128},
    ))
"""

from repro.api.execution import (
    ScenarioRun,
    execute_scenarios,
    manifest_scenarios,
)
from repro.api.options import (
    ExecutionOptions,
    SinkSpec,
    format_shard,
    parse_shard,
)
from repro.api.request import RunRequest
from repro.api.result import RunError, RunResult
from repro.api.workloads import (
    Parameter,
    Workbench,
    Workload,
    get_workload,
    register_workload,
    run,
    workload_names,
)

__all__ = [
    "ExecutionOptions",
    "SinkSpec",
    "parse_shard",
    "format_shard",
    "RunRequest",
    "RunResult",
    "RunError",
    "ScenarioRun",
    "execute_scenarios",
    "manifest_scenarios",
    "Parameter",
    "Workload",
    "Workbench",
    "register_workload",
    "get_workload",
    "workload_names",
    "run",
]
