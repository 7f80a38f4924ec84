"""The scenario-family registry: one name per sweepable workload shape.

A *scenario family* bundles everything the engine and the campaign
compiler need to know about one kind of scenario:

* the frozen scenario dataclass (the unit of work and the store key);
* the module-level worker evaluating one scenario (picklable, so it
  fans out over process pools);
* the record decoder rebuilding a typed result from a sink/store
  record (what makes the family servable from a
  :class:`repro.store.ResultStore`);
* its *shared-artifact declaration* — a ``context_key`` function mapping
  a scenario to the :class:`repro.engine.context.ContextKey` it shares
  with its grid neighbours, plus the ``artifacts`` the family consumes
  from the built :class:`~repro.engine.context.AnalysisContext`.  The
  engine groups scenario streams by this key
  (:func:`repro.engine.run_batch` with ``group_by``) so each worker
  builds every context once and evaluates its whole slice against it.

The built-in families — ``bound`` and ``study`` from
:mod:`repro.engine.sweeps`, ``sim`` and ``edf-study`` from
:mod:`repro.engine.families` — are registered at import time.  Adding a
new family is one dataclass plus one worker function plus a
:func:`register_family` call; the campaign subsystem
(:mod:`repro.campaign`) then reaches it by name from declarative specs
with no further wiring.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, fields, is_dataclass
from importlib import import_module
from typing import Any, get_args, get_origin, get_type_hints

from repro.utils.checks import require


@dataclass(frozen=True, slots=True)
class AxisSpec:
    """One sweepable field of a scenario family, self-described.

    Derived from the family's frozen scenario dataclass (name, type,
    default) plus the family's registered help strings, so declarative
    frontends — the campaign compiler, the CLI, generated docs — can
    present a family's full parameter surface without importing its
    module.

    Attributes:
        name: Scenario dataclass field name (what campaign ``axes`` and
            ``defaults`` refer to).
        type_name: Human/JSON-facing type label (``"float"``, ``"int"``,
            ``"str"``, ``"bool"``, ``"list[str]"``, …).
        required: Whether the field has no default (every campaign must
            cover it with an axis or a default).
        default: The field's default value (``None`` when required).
        help: One-line description registered by the family.
    """

    name: str
    type_name: str
    required: bool
    default: Any
    help: str


def _type_label(hint: Any) -> str:
    """Render a scenario field's type hint as a stable, JSON-ish label."""
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if args and args[-1] is Ellipsis:
            return f"list[{_type_label(args[0])}]"
        return "list"
    return getattr(hint, "__name__", str(hint))


@dataclass(frozen=True, slots=True)
class ScenarioFamily:
    """Everything the engine knows about one scenario shape.

    Attributes:
        name: Registry key (kebab-case, stable across releases — it is
            referenced by campaign specs and store manifests).
        scenario_type: The frozen scenario dataclass.
        worker: Module-level callable ``scenario -> result``.
        decoder: Callable rebuilding the typed result from its
            sink/store record (inverse of
            :func:`repro.engine.sinks.as_record` after the strict-JSON
            round trip).
        summary: One-line description for ``--help``-style listings.
        context_key: Optional callable ``scenario ->``
            :class:`repro.engine.context.ContextKey` naming the shared
            artifacts the scenario evaluates against; ``None`` for
            families without shared state.  Passed as ``group_by`` to
            the engine so grid slices sharing a key are evaluated
            together.
        artifacts: The artifact names (see :mod:`repro.engine.context`)
            the family's worker consumes from the built context.
        field_help: ``(field name, one-line help)`` pairs documenting
            the scenario dataclass's fields; surfaced through
            :meth:`axes` to the CLI, docs generator and campaign
            error messages.
    """

    name: str
    scenario_type: type
    worker: Callable[[Any], Any]
    decoder: Callable[[Mapping[str, Any]], Any]
    summary: str
    context_key: Callable[[Any], Any] | None = None
    artifacts: tuple[str, ...] = ()
    field_help: tuple[tuple[str, str], ...] = ()

    def axes(self) -> tuple[AxisSpec, ...]:
        """The family's sweepable axes, in scenario-field order.

        One :class:`AxisSpec` per scenario dataclass field — name, type
        label, required/default, and the registered help string — so
        frontends can render a family's whole parameter surface (CLI
        listings, the generated ``docs/api.md`` tables) from the
        registry alone.
        """
        hints = get_type_hints(self.scenario_type)
        help_by_name = dict(self.field_help)
        specs = []
        for field in fields(self.scenario_type):
            required = (
                field.default is MISSING
                and field.default_factory is MISSING
            )
            specs.append(
                AxisSpec(
                    name=field.name,
                    type_name=_type_label(hints[field.name]),
                    required=required,
                    default=None if required else (
                        field.default
                        if field.default is not MISSING
                        else field.default_factory()
                    ),
                    help=help_by_name.get(field.name, ""),
                )
            )
        return tuple(specs)


_FAMILIES: dict[str, ScenarioFamily] = {}


def _importable(func: Callable) -> bool:
    """Whether ``func`` pickles by reference (module + qualname)."""
    qualname = getattr(func, "__qualname__", "")
    module = getattr(func, "__module__", "")
    if not qualname or not module or "<" in qualname:
        return False  # lambdas and <locals> never pickle
    try:
        target: Any = import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError):
        return False
    return target is func


def _validate(family: ScenarioFamily) -> None:
    """Reject a family the engine, the store or the docs cannot serve."""
    scenario = family.scenario_type
    require(
        is_dataclass(scenario) and scenario.__dataclass_params__.frozen,
        f"scenario type {scenario.__name__!r} of family {family.name!r} "
        "must be a frozen dataclass: the store keys the scenario value, "
        "and a mutable one could drift between keying and evaluation",
    )
    for role in ("worker", "decoder", "context_key"):
        func = getattr(family, role)
        require(
            func is None or _importable(func),
            f"{role} of family {family.name!r} "
            f"({getattr(func, '__qualname__', func)!r}) is not importable "
            "by its qualified name, so it cannot pickle into the engine's "
            "process pool; define it at module top level",
        )
    if not family.field_help:
        return  # undocumented families render their axes without help
    declared = {name for name, _ in family.field_help}
    actual = {field.name for field in fields(scenario)}
    if missing := sorted(actual - declared):
        raise ValueError(
            f"family {family.name!r} axis {missing[0]!r} has no field_help "
            "entry; the generated docs and campaign error messages would "
            "present an undocumented axis"
        )
    if stale := sorted(declared - actual):
        raise ValueError(
            f"family {family.name!r} documents axis {stale[0]!r} which its "
            "scenario dataclass does not have"
        )


def register_family(family: ScenarioFamily, replace: bool = False) -> None:
    """Register a scenario family under its name.

    The family must be servable before it is reachable: its scenario
    type a frozen dataclass, its worker, decoder and context key
    importable by qualified name (they pickle into the engine's process
    pool), and a non-empty ``field_help`` must document exactly the
    scenario's fields.

    Args:
        family: The family to register.
        replace: Allow overwriting an existing registration (tests);
            by default a duplicate name fails loudly.

    Raises:
        ValueError: when any of the above does not hold.
    """
    require(
        bool(family.name), "scenario family needs a non-empty name"
    )
    _validate(family)
    require(
        replace or family.name not in _FAMILIES,
        f"scenario family {family.name!r} is already registered",
    )
    _FAMILIES[family.name] = family


def get_family(name: str) -> ScenarioFamily:
    """The registered family called ``name``.

    Raises:
        ValueError: for unknown names, listing the known ones.
    """
    require(
        name in _FAMILIES,
        f"unknown scenario family {name!r}; registered families: "
        f"{', '.join(family_names())}",
    )
    return _FAMILIES[name]


def family_names() -> tuple[str, ...]:
    """All registered family names, sorted."""
    return tuple(sorted(_FAMILIES))


def _register_builtins() -> None:
    """Register the four built-in families (idempotent per import)."""
    from repro.engine import families, sweeps

    register_family(
        ScenarioFamily(
            name="bound",
            scenario_type=sweeps.BoundScenario,
            worker=sweeps.evaluate_bound_scenario,
            decoder=sweeps.bound_result_from_record,
            summary="Algorithm 1 vs Eq. 4 delay bounds over (function, Q) "
            "grids (the Figure 5 shape)",
            context_key=sweeps.bound_context_key,
            artifacts=sweeps.BOUND_ARTIFACTS,
            field_help=(
                ("function", "benchmark delay-function name "
                 "(gaussian1, gaussian2, bimodal)"),
                ("q", "floating-NPR length to analyse"),
                ("interpretation", "benchmark parameter interpretation"),
                ("knots", "piecewise resolution of the benchmark function"),
            ),
        )
    )
    register_family(
        ScenarioFamily(
            name="study",
            scenario_type=sweeps.StudyScenario,
            worker=sweeps.evaluate_study_scenario,
            decoder=sweeps.study_result_from_record,
            summary="fixed-priority delay-aware acceptance studies on "
            "generated task sets (the EXT-D shape)",
            context_key=sweeps.study_context_key,
            artifacts=sweeps.STUDY_ARTIFACTS,
            field_help=(
                ("utilization", "target total utilization of the "
                 "generated set"),
                ("seed", "task-set generator seed (scenario-owned)"),
                ("n_tasks", "tasks per generated set"),
                ("q_fraction", "fraction of the maximal safe NPR length "
                 "to assign"),
                ("delay_height", "max f_i as a fraction of each task's "
                 "WCET"),
                ("methods", "delay-aware test methods to run"),
            ),
        )
    )
    register_family(
        ScenarioFamily(
            name="sim",
            scenario_type=families.SimScenario,
            worker=families.evaluate_sim_scenario,
            decoder=families.sim_result_from_record,
            summary="simulator runs comparing observed preemption delay "
            "against Algorithm 1's bound (Theorem 1 at sweep scale)",
            context_key=families.sim_context_key,
            artifacts=families.SIM_ARTIFACTS,
            field_help=(
                ("utilization", "target total utilization of the "
                 "generated set"),
                ("seed", "scenario-owned seed (task set, offsets, "
                 "release jitter)"),
                ("n_tasks", "tasks per generated set"),
                ("q_fraction", "fraction of the maximal safe NPR length "
                 "to assign"),
                ("delay_height", "max f_i as a fraction of each task's "
                 "WCET"),
                ("policy", "scheduling policy (fp or edf)"),
                ("horizon_factor", "simulated horizon as a multiple of "
                 "the largest period"),
                ("sporadic", "randomize inter-arrival times"),
            ),
        )
    )
    register_family(
        ScenarioFamily(
            name="edf-study",
            scenario_type=families.EdfStudyScenario,
            worker=families.evaluate_edf_study_scenario,
            decoder=families.edf_study_result_from_record,
            summary="EDF delay-aware acceptance studies with "
            "Bertogna-Baruah NPR lengths",
            context_key=families.edf_study_context_key,
            artifacts=families.EDF_STUDY_ARTIFACTS,
            field_help=(
                ("utilization", "target total utilization of the "
                 "generated set"),
                ("seed", "task-set generator seed (scenario-owned)"),
                ("n_tasks", "tasks per generated set"),
                ("q_fraction", "fraction of the maximal safe NPR length "
                 "to assign"),
                ("delay_height", "max f_i as a fraction of each task's "
                 "WCET"),
                ("methods", "EDF delay-aware test methods to run"),
            ),
        )
    )


_register_builtins()
