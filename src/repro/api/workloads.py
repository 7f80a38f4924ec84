"""The workload registry: every runnable surface of the reproduction.

A *workload* is one named unit of work the facade can evaluate — the
paper's figures (``fig2``/``fig4``/``fig5``), the Theorem 1 validation
fuzz (``validate``), the acceptance study (``study``), the engine Q
sweep (``sweep``), declarative campaigns over any registered scenario
family (``campaign``), shard-store merging (``merge``), the static
analysis pass (``check``, :mod:`repro.checks`) and the registry
listing itself (``families``).  Each entry declares:

* its **parameters** (name, type, default, help) — what the CLI turns
  into flags and :class:`~repro.api.request.RunRequest` validates;
* which **shared execution flag groups** apply (``engine`` =
  ``--jobs/--chunk``, ``store`` = ``--store/--resume``, ``shard`` =
  ``--shard``, ``sink`` = ``--format/--out``), so every sweep-shaped
  command exposes the same caching/resume/shard surface;
* a **runner** evaluating a request into a typed
  :class:`~repro.api.result.RunResult` (the grid workloads share one
  runner, which executes their :mod:`repro.api.plan` plans through
  :func:`repro.api.execution.execute_scenarios` — the one pipeline);
* a **renderer** producing the CLI's stdout from the result, so the
  command bodies in :mod:`repro.cli` are pure dispatch.

:class:`Workbench` is the evaluation front door:
``Workbench().run(RunRequest.make("fig5", knots=256))``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.api.execution import (
    check_resume,
    effective_results_dir,
    execute_scenarios,
    manifest_scenarios,
    open_sink,
    resolve_sinks,
)
from repro.api.options import ExecutionOptions
from repro.api.request import RunRequest
from repro.api.result import RunError, RunResult
from repro.engine.sinks import ResultSink
from repro.utils.checks import require

#: Sentinel for parameters without a default (must be supplied).
REQUIRED = object()


@dataclass(frozen=True)
class Parameter:
    """One declared workload parameter.

    Attributes:
        name: Parameter (and CLI ``--flag``) name.
        type: Expected Python type (``int``/``float``/``str``), or
            ``None`` for untyped parameters (e.g. a spec that may be a
            path or a mapping).
        default: Default value, or :data:`REQUIRED`.
        help: One-line description (CLI help, generated docs).
        choices: Allowed values, when closed.
        positional: Render as a positional CLI argument.
        repeatable: Accept multiple values (CLI ``append``/``nargs``).
        hidden: Programmatic-only — not rendered as a CLI flag.
        metavar: CLI value placeholder (default: argparse's; repeatable
            flags default to ``KEY=VALUE``).
    """

    name: str
    type: type | None = None
    default: Any = REQUIRED
    help: str = ""
    choices: tuple[Any, ...] | None = None
    positional: bool = False
    repeatable: bool = False
    hidden: bool = False
    metavar: str | None = None

    def resolve(self, workload: str, value: Any) -> Any:
        """Validate/coerce one supplied value against this declaration."""
        if self.type is float and isinstance(value, int) and not isinstance(
            value, bool
        ):
            value = float(value)
        if self.type is not None and not isinstance(value, self.type):
            raise ValueError(
                f"workload {workload!r} parameter {self.name!r} expects "
                f"{self.type.__name__}, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"workload {workload!r} parameter {self.name!r} must be "
                f"one of {', '.join(map(str, self.choices))}; "
                f"got {value!r}"
            )
        return value


@dataclass(frozen=True)
class Workload:
    """One registered workload: parameters, runner and renderer.

    Attributes:
        name: Registry key (the CLI subcommand name).
        summary: One-line description (CLI help).
        parameters: Declared parameters.
        runner: ``(request, resolved_params) -> RunResult``.
        render: ``RunResult -> str`` — the CLI's stdout.
        exit_code: ``RunResult -> int`` (default: 0 iff ``result.ok``).
        flags: Shared execution-flag groups that apply: any of
            ``"engine"``, ``"store"``, ``"shard"``, ``"sink"``.
    """

    name: str
    summary: str
    parameters: tuple[Parameter, ...]
    runner: Callable[[RunRequest, dict[str, Any]], RunResult]
    render: Callable[[RunResult], str]
    exit_code: Callable[[RunResult], int] = field(
        default=lambda result: 0 if result.ok else 1
    )
    flags: frozenset[str] = field(default=frozenset())

    def resolve_params(self, supplied: Mapping[str, Any]) -> dict[str, Any]:
        """Validate supplied parameters and fill in declared defaults."""
        declared = {param.name: param for param in self.parameters}
        unknown = sorted(set(supplied) - set(declared))
        require(
            not unknown,
            f"unknown parameter(s) {', '.join(unknown)} for workload "
            f"{self.name!r}; valid parameters: "
            f"{', '.join(declared) or '(none)'}",
        )
        resolved: dict[str, Any] = {}
        for name, param in declared.items():
            if name in supplied:
                resolved[name] = param.resolve(self.name, supplied[name])
            else:
                require(
                    param.default is not REQUIRED,
                    f"workload {self.name!r} requires parameter {name!r}",
                )
                resolved[name] = param.default
        return resolved


_WORKLOADS: dict[str, Workload] = {}


def register_workload(workload: Workload, replace: bool = False) -> None:
    """Register a workload under its name (duplicates fail loudly)."""
    require(
        replace or workload.name not in _WORKLOADS,
        f"workload {workload.name!r} is already registered",
    )
    _WORKLOADS[workload.name] = workload


def get_workload(name: str) -> Workload:
    """The registered workload called ``name`` (unknown names fail
    with the valid choices listed)."""
    require(
        name in _WORKLOADS,
        f"unknown workload {name!r}; registered workloads: "
        f"{', '.join(workload_names())}",
    )
    return _WORKLOADS[name]


def workload_names() -> tuple[str, ...]:
    """All registered workload names, in registration order."""
    return tuple(_WORKLOADS)


class Workbench:
    """Evaluate :class:`RunRequest` objects into :class:`RunResult`.

    The facade's single execution front door: every workload —
    figures, validation, sweeps, campaigns, merges — goes through
    :meth:`run`, which resolves the workload, validates parameters,
    times the evaluation and stamps the duration onto the result.
    """

    def run(self, request: RunRequest) -> RunResult:
        """Evaluate one request; raises the workload's errors as-is
        (:class:`ValueError` for usage problems,
        :class:`repro.engine.WorkerError` for failing scenarios,
        :class:`~repro.api.result.RunError` for failed runs)."""
        workload = get_workload(request.workload)
        params = workload.resolve_params(request.params_dict())
        started = perf_counter()
        result = workload.runner(request, params)
        elapsed = perf_counter() - started
        return replace(result, request=request, seconds=elapsed)


def run(
    workload: str,
    options: ExecutionOptions | None = None,
    **params: Any,
) -> RunResult:
    """One-call convenience: build the request and run it."""
    return Workbench().run(RunRequest.make(workload, options, **params))


# ----------------------------------------------------------------------
# the grid workloads: fig4, fig5, study, sweep and campaign
# ----------------------------------------------------------------------


class _ConvergenceCounter(ResultSink):
    """Sink wrapper counting converged records as they stream past."""

    def __init__(self, inner: ResultSink | None) -> None:
        self._inner = inner
        self.converged = 0

    def write(self, record: Mapping[str, Any]) -> None:
        if record.get("converged"):
            self.converged += 1
        if self._inner is not None:
            self._inner.write(record)

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()


def _run_grid(request: RunRequest, params: dict[str, Any]) -> RunResult:
    """The one runner of every planned workload.

    Plans the grid (:func:`repro.api.plan.plan_scenarios`), evaluates it
    through :func:`~repro.api.execution.execute_scenarios`, then either
    streams the records to the run's sinks (``plan.fold is None``) or
    folds the collected results into the payload and artifact.  A
    folding plan needs the *full* grid, so its shard runs checkpoint
    into a store and stop there; the artifact comes from rerunning on
    the merged store.  It streams no records, so it refuses sinks and
    a sink format rather than ignore them.
    """
    from repro.api.plan import plan_scenarios

    options = request.options
    check_resume(options)  # before a sink truncates any output file
    plan = plan_scenarios(request.workload, params)
    folding = plan.fold is not None
    if folding and options.shard is not None and options.store is None:
        raise ValueError(
            f"--shard on {plan.workload} requires --store: a shard "
            "computes only its slice, so the final artifact is produced "
            "by merging the shard stores ('repro merge') and re-running "
            "with the merged store"
        )
    if folding and (options.sinks or options.format != ExecutionOptions.format):
        raise ValueError(
            f"{plan.workload} folds its grid into its own artifact and "
            "streams no records, so it takes no sinks and no sink format"
        )
    specs = () if folding else resolve_sinks(options, plan.sink_name)
    counter = None if folding else _ConvergenceCounter(open_sink(specs))
    try:
        run = execute_scenarios(
            plan.worker,
            plan.scenarios,
            options=options,
            manifest=plan.manifest,
            group_by=plan.group_by,
            decode=plan.decode,
            collect=folding or params.get("collect", False),
            sink=counter,
        )
    finally:
        if counter is not None:
            counter.close()
    payload, artifacts, extra = None, (), {}
    if not folding:
        artifacts = tuple(spec.path for spec in specs)
        extra = {
            **plan.extra,
            "converged": counter.converged,
            "store_used": options.store is not None,
        }
    elif options.shard is not None:
        extra = {"sharded": True, "store": str(options.store)}
    else:
        directory = (
            None
            if options.results_dir is None
            else effective_results_dir(options)
        )
        payload, artifacts = plan.fold(run.results, directory)
    return RunResult(
        request=request,
        payload=payload,
        records=None if run.results is None else tuple(run.results),
        manifest=plan.manifest,
        artifacts=artifacts,
        total=run.total,
        cached=run.cached,
        computed=run.computed,
        extra=extra,
    )


def _render_shard(result: RunResult, name: str) -> str:
    from repro.experiments import render_table

    rows = [
        ["scenarios (this shard)", result.total],
        ["cached", result.cached],
        ["computed", result.computed],
        ["store", result.extra["store"]],
    ]
    return "\n".join(
        [
            render_table(["quantity", "value"], rows),
            f"shard checkpointed — merge the shard stores with "
            f"'repro merge' and rerun {name} with the merged store to "
            f"emit the final artifact",
        ]
    )


# ----------------------------------------------------------------------
# fig4
# ----------------------------------------------------------------------


def _render_fig4(result: RunResult) -> str:
    from repro.experiments import line_plot

    data = result.payload
    series = {
        name: list(zip(data.ts, values))
        for name, values in data.series.items()
    }
    return "\n".join(
        [
            line_plot(series, width=72, height=16, title="Figure 4"),
            f"wrote {result.artifacts[0]}",
        ]
    )


# ----------------------------------------------------------------------
# fig5
# ----------------------------------------------------------------------


def _render_fig5(result: RunResult) -> str:
    if result.extra.get("sharded"):
        return _render_shard(result, "fig5")
    from repro.experiments import (
        improvement_summary,
        line_plot,
        render_table,
    )

    data = result.payload
    summary = improvement_summary(data)
    return "\n".join(
        [
            line_plot(
                data.series(), width=72, height=20, log_y=True,
                title="Figure 5",
            ),
            render_table(
                ["function", "median SOA / Algorithm 1"],
                [[k, v] for k, v in sorted(summary.items())],
            ),
            f"wrote {result.artifacts[0]}",
        ]
    )


# ----------------------------------------------------------------------
# fig2
# ----------------------------------------------------------------------


def _run_fig2(request: RunRequest, params: dict[str, Any]) -> RunResult:
    from repro.experiments import run_figure2_demo

    demo = run_figure2_demo(q=params["q"])
    return RunResult(
        request=request,
        ok=demo.naive_is_violated and demo.algorithm1_is_safe,
        payload=demo,
        total=1,
        computed=1,
    )


def _render_fig2(result: RunResult) -> str:
    from repro.experiments import render_table

    demo = result.payload
    return render_table(
        ["quantity", "value"],
        [
            ["Q", demo.q],
            ["naive packing 'bound'", demo.naive_bound],
            ["simulated run delay", demo.simulated_delay],
            ["Algorithm 1 bound", demo.algorithm1_bound],
            ["naive violated", demo.naive_is_violated],
            ["Algorithm 1 safe", demo.algorithm1_is_safe],
        ],
    )


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


def _run_validate(request: RunRequest, params: dict[str, Any]) -> RunResult:
    from repro.sim import reference_validation_task_set, validation_campaign

    tasks = reference_validation_task_set(params["q"])
    report = validation_campaign(
        tasks,
        policy=params["policy"],
        seeds=range(params["seeds"]),
        horizon=params["horizon"],
    )
    return RunResult(
        request=request,
        ok=report.passed,
        payload=report,
        total=params["seeds"],
        computed=params["seeds"],
    )


def _render_validate(result: RunResult) -> str:
    report = result.payload
    return (
        f"jobs checked: {report.checked_jobs}; "
        f"max measured/bound: {report.max_tightness:.3f}; "
        f"passed: {report.passed}"
    )


# ----------------------------------------------------------------------
# study
# ----------------------------------------------------------------------


def _render_study(result: RunResult) -> str:
    if result.extra.get("sharded"):
        return _render_shard(result, "study")
    from repro.experiments import line_plot, render_table, study_series
    from repro.experiments.schedulability_study import STUDY_METHODS

    points = result.payload
    methods = list(STUDY_METHODS)
    rows = [
        [p.utilization, *(p.ratios[m] for m in methods)] for p in points
    ]
    return "\n".join(
        [
            render_table(["U", *methods], rows),
            line_plot(
                study_series(points),
                width=64,
                height=14,
                title="Acceptance ratio vs utilization",
            ),
        ]
    )


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def _render_stream_table(
    result: RunResult, head_rows: list[list[Any]]
) -> str:
    """The sweep/campaign summary table (shared row tail)."""
    from repro.experiments import render_table

    rows = list(head_rows)
    if result.extra.get("store_used"):
        rows += [["cached", result.cached], ["computed", result.computed]]
    elapsed = result.seconds
    rate = result.total / elapsed if elapsed > 0 else math.inf
    rows += [
        ["seconds", f"{elapsed:.2f}"],
        ["scenarios/s", f"{rate:.0f}"],
        ["output", ", ".join(result.artifacts)],
    ]
    return render_table(["quantity", "value"], rows)


def _render_sweep(result: RunResult) -> str:
    return _render_stream_table(
        result,
        [
            ["scenarios", result.total],
            ["converged", result.extra["converged"]],
            ["diverged", result.total - result.extra["converged"]],
        ],
    )


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------


def _render_campaign(result: RunResult) -> str:
    return _render_stream_table(
        result,
        [
            ["campaign", result.extra["campaign"]],
            ["family", result.extra["family"]],
            ["scenarios", result.total],
        ],
    )


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------


def _run_merge(request: RunRequest, params: dict[str, Any]) -> RunResult:
    from repro.store import ResultStore, merge_stores, package_fingerprint

    sources_arg = list(params["sources"])
    missing = [path for path in sources_arg if not Path(path).exists()]
    if missing:
        raise ValueError(
            f"input store(s) not found: {', '.join(missing)}"
        )
    fingerprint = package_fingerprint("repro")
    artifacts = [str(params["target"])]
    with ResultStore(params["target"], fingerprint=fingerprint) as target:
        sources: list[ResultStore] = []
        try:
            for path in sources_arg:
                sources.append(ResultStore(path))
            added = merge_stores(target, sources)
        finally:
            for source in sources:
                source.close()
        total = len(target)
        out = params["out"]
        if out is not None:
            from repro.engine import CsvSink, JsonlSink, emit_from_store

            manifest = target.manifest
            if manifest is None:
                raise RunError(
                    "merged store has no sweep manifest; cannot emit a "
                    "result file (were the shards produced by 'repro "
                    "sweep --store'?)"
                )
            scenarios = manifest_scenarios(manifest)
            sink_cls = JsonlSink if params["format"] == "jsonl" else CsvSink
            with sink_cls(out) as sink:
                emit_from_store(target, scenarios, sink=sink, collect=False)
            artifacts.append(str(out))
    return RunResult(
        request=request,
        artifacts=tuple(artifacts),
        total=total,
        computed=added,
        extra={
            "inputs": len(sources_arg),
            "added": added,
            "out": params["out"],
        },
    )


def _render_merge(result: RunResult) -> str:
    from repro.experiments import render_table

    rows = [
        ["input stores", result.extra["inputs"]],
        ["rows added", result.extra["added"]],
        ["rows total", result.total],
        ["merged store", result.artifacts[0]],
    ]
    if result.extra["out"] is not None:
        rows.append(["output", result.extra["out"]])
    return render_table(["quantity", "value"], rows)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def _run_serve(request: RunRequest, params: dict[str, Any]) -> RunResult:
    from repro.serve.server import ServeConfig, run_server

    options = request.options
    if options.store is None:
        raise ValueError(
            "serve requires --store PATH: the shared content-addressed "
            "store is what cross-client deduplication runs against"
        )
    config = ServeConfig(
        host=params["host"],
        port=params["port"],
        store=str(options.store),
        jobs=options.jobs,
        chunk=options.chunk,
        workers=params["workers"],
        max_queued=params["queue"],
        line_limit=params["limit"],
        allow_fail_after=params["allow_fail_after"],
        ready_file=params["ready_file"],
    )
    stats = run_server(config)
    return RunResult(request=request, payload=stats, extra=dict(stats))


def _render_serve(result: RunResult) -> str:
    from repro.experiments import render_table

    rows = sorted(
        (key, value)
        for key, value in result.extra.items()
        if not isinstance(value, Mapping)
    )
    return render_table(["quantity", "value"], rows)


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------


def _run_check(request: RunRequest, params: dict[str, Any]) -> RunResult:
    from repro.checks import load_tree, repo_root, run_checks

    root = Path(params["root"]) if params["root"] else repo_root()
    report = run_checks(
        load_tree(root),
        select=list(params["select"]) or None,
        ignore=list(params["ignore"]) or None,
    )
    return RunResult(
        request=request,
        ok=report.ok,
        payload=report,
        total=report.files_checked,
        computed=len(report.codes_run),
        extra={
            "format": params["format"],
            "findings": len(report.findings),
            "suppressed": report.suppressed,
        },
    )


def _render_check(result: RunResult) -> str:
    import json

    report = result.payload
    if result.extra["format"] == "json":
        return json.dumps(report.to_json(), indent=2, sort_keys=True)
    if result.extra["format"] == "sarif":
        from repro.checks import report_to_sarif

        return json.dumps(
            report_to_sarif(report), indent=2, sort_keys=True
        )
    return report.render_text()


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------


def _run_families(request: RunRequest, params: dict[str, Any]) -> RunResult:
    from repro.engine.registry import family_names, get_family

    listing = tuple(
        (get_family(name), get_family(name).axes())
        for name in family_names()
    )
    return RunResult(request=request, payload=listing)


def _render_families(result: RunResult) -> str:
    from repro.experiments import render_table

    blocks = []
    for family, axes in result.payload:
        rows = [
            [
                axis.name,
                axis.type_name,
                "(required)" if axis.required else axis.default,
                axis.help,
            ]
            for axis in axes
        ]
        blocks.append(
            f"{family.name} — {family.summary}\n"
            + render_table(["axis", "type", "default", "description"], rows)
        )
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------


def _register_builtins() -> None:
    register_workload(
        Workload(
            name="fig4",
            summary="sample the benchmark f functions",
            parameters=(
                Parameter("samples", int, 401, "sample points over [0, C]"),
                Parameter(
                    "knots", int, 2048,
                    "piecewise resolution of the functions",
                ),
            ),
            runner=_run_grid,
            render=_render_fig4,
            flags=frozenset({"store"}),
        )
    )
    register_workload(
        Workload(
            name="fig5",
            summary="the headline Q sweep",
            parameters=(
                Parameter("points", int, 40, "Q grid points"),
                Parameter(
                    "knots", int, 2048,
                    "benchmark-function resolution",
                ),
            ),
            runner=_run_grid,
            render=_render_fig5,
            flags=frozenset({"engine", "store", "shard"}),
        )
    )
    register_workload(
        Workload(
            name="fig2",
            summary="naive-bound counterexample",
            parameters=(
                Parameter("q", float, 100.0, "NPR length of the target"),
            ),
            runner=_run_fig2,
            render=_render_fig2,
        )
    )
    register_workload(
        Workload(
            name="validate",
            summary="Theorem 1 fuzzing campaign",
            parameters=(
                Parameter("q", float, 120.0, "target NPR length"),
                Parameter(
                    "policy", str, "fp", "scheduling policy",
                    choices=("fp", "edf"),
                ),
                Parameter("seeds", int, 6, "fuzzing seeds"),
                Parameter(
                    "horizon", float, 60_000.0, "simulated time per run"
                ),
            ),
            runner=_run_validate,
            render=_render_validate,
        )
    )
    register_workload(
        Workload(
            name="study",
            summary="schedulability study",
            parameters=(
                Parameter("tasks", int, 5, "tasks per generated set"),
                Parameter(
                    "sets", int, 25, "task sets per utilization level"
                ),
            ),
            runner=_run_grid,
            render=_render_study,
            flags=frozenset({"engine", "store", "shard"}),
        )
    )
    register_workload(
        Workload(
            name="sweep",
            summary="large-scale batch Q sweep via the engine",
            parameters=(
                Parameter(
                    "points", int, 400,
                    "Q grid points (scenarios = 3x this)",
                ),
                Parameter("knots", int, 1024, "function resolution"),
            ),
            runner=_run_grid,
            render=_render_sweep,
            flags=frozenset({"engine", "store", "shard", "sink"}),
        )
    )
    register_workload(
        Workload(
            name="campaign",
            summary="run a declarative scenario campaign from a spec "
            "file or built-in name",
            parameters=(
                Parameter(
                    "spec", None,
                    help="spec file (.json/.toml), inline mapping, or a "
                    "built-in campaign name (fig5, study, sim-validate, "
                    "edf-study)",
                    positional=True,
                ),
                Parameter(
                    "set", None, (),
                    "override a builtin parameter (e.g. points=5) or a "
                    "spec file default; repeatable",
                    repeatable=True,
                ),
                Parameter(
                    "collect", bool, False,
                    "collect decoded per-scenario results onto "
                    "RunResult.records (programmatic only; the CLI "
                    "streams to sinks)",
                    hidden=True,
                ),
            ),
            runner=_run_grid,
            render=_render_campaign,
            flags=frozenset({"engine", "store", "shard", "sink"}),
        )
    )
    register_workload(
        Workload(
            name="merge",
            summary="merge shard stores; optionally emit the final "
            "result file",
            parameters=(
                Parameter(
                    "target", str, help="merged (output) store path",
                    positional=True,
                ),
                Parameter(
                    "sources", None, help="input shard store paths",
                    positional=True, repeatable=True,
                ),
                Parameter(
                    "out", None, None,
                    "also emit the final result file from the merged "
                    "store",
                ),
                Parameter(
                    "format", str, "jsonl", "result file format",
                    choices=("jsonl", "csv"),
                ),
            ),
            runner=_run_merge,
            render=_render_merge,
        )
    )
    register_workload(
        Workload(
            name="serve",
            summary="run the analysis job server (async, store-deduped, "
            "resumable JSONL streams)",
            parameters=(
                Parameter("host", str, "127.0.0.1", "interface to bind"),
                Parameter(
                    "port", int, 7512,
                    "TCP port to listen on (0 = OS-assigned)",
                ),
                Parameter(
                    "workers", int, None,
                    "concurrent job slots; independent jobs run in "
                    "parallel, one slot each, and --jobs parallelizes "
                    "inside a job (default: cpu-count, capped)",
                ),
                Parameter(
                    "queue", int, 16,
                    "max queued jobs before submissions are rejected "
                    "(429-style 'busy' error frames)",
                ),
                Parameter(
                    "limit", int, 1_048_576,
                    "max request frame size in bytes (oversized "
                    "submissions are rejected with an error frame)",
                ),
                Parameter(
                    "ready_file", str, "",
                    "write 'host port' here once listening (lets "
                    "scripts wait for --port 0 startup)",
                ),
                Parameter(
                    "allow_fail_after", bool, False,
                    "honour fail_after in submitted requests (the "
                    "fault-injection test seam; never enable in "
                    "production)",
                    hidden=True,
                ),
            ),
            runner=_run_serve,
            render=_render_serve,
            flags=frozenset({"engine", "store"}),
        )
    )
    register_workload(
        Workload(
            name="check",
            summary="run the domain-invariant static-analysis pass "
            "(determinism, worker purity, async hygiene, concurrency, "
            "fork safety, contracts)",
            parameters=(
                Parameter(
                    "select", None, (),
                    "run only these checker codes, groups or prefixes "
                    "(e.g. DET001, determinism, RC); repeatable",
                    repeatable=True, metavar="CODE",
                ),
                Parameter(
                    "ignore", None, (),
                    "drop these checker codes, groups or prefixes from "
                    "the run; repeatable",
                    repeatable=True, metavar="CODE",
                ),
                Parameter(
                    "format", str, "text", "report format",
                    choices=("text", "json", "sarif"),
                ),
                Parameter(
                    "root", str, "",
                    "repository root to check (default: auto-detected "
                    "from the installed package layout)",
                ),
            ),
            runner=_run_check,
            render=_render_check,
        )
    )
    register_workload(
        Workload(
            name="families",
            summary="list the registered scenario families and their axes",
            parameters=(),
            runner=_run_families,
            render=_render_families,
        )
    )


_register_builtins()
