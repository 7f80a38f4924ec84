"""The scenario-family registry: one name per sweepable workload shape.

A *scenario family* bundles everything the engine and the campaign
compiler need to know about one kind of scenario:

* the frozen scenario dataclass (the unit of work and the store key);
* the module-level worker evaluating one scenario (picklable, so it
  fans out over process pools), whose annotated return type — a frozen
  dataclass — also yields the family's record decoder
  (:func:`record_decoder`), which makes the family servable from a
  :class:`repro.store.ResultStore`;
* its ``context_key`` — a function mapping a scenario to the key
  (:class:`repro.engine.context.TaskSetKey` or
  :class:`~repro.engine.context.BenchmarkKey`) it shares with its grid
  neighbours; the key alone says what the built context holds.  The
  engine groups scenario streams by this key
  (:func:`repro.engine.run_batch` with ``group_by``) so each worker
  builds every context once and evaluates its whole slice against it.

The built-in families — ``bound`` and ``study`` from
:mod:`repro.engine.sweeps`, ``sim`` and ``edf-study`` from
:mod:`repro.engine.families` — are registered at import time.  Adding a
new family is a scenario dataclass, a result dataclass, one worker
function and a :func:`register_family` call; the campaign subsystem
(:mod:`repro.campaign`) then reaches it by name from declarative specs
with no further wiring.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import lru_cache, partial
from importlib import import_module
from types import MappingProxyType
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


#: Record decoder signature: sink/store record -> typed result.
Decoder = Callable[[Mapping[str, Any]], Any]

#: The strings :func:`repro.utils.jsonsafe.json_safe` writes for the
#: non-finite floats; a record's float field may hold one of them.
_NON_FINITE = ("inf", "-inf", "nan")

#: Scalar field types, as their coercion messages name them.
_SCALARS = {
    float: "a number",
    int: "an integer",
    bool: "a boolean",
    str: "a string",
}


@lru_cache(maxsize=None)
def _field_types(cls: type) -> Mapping[str, Any]:
    """Resolved field name -> type hint of a dataclass (shared; read
    only)."""
    hints = get_type_hints(cls)
    return MappingProxyType(
        {field.name: hints[field.name] for field in fields(cls)}
    )


@lru_cache(maxsize=None)
def _result_type(worker: Callable[[Any], Any]) -> Any:
    """The resolved return annotation of a family worker, or ``None``."""
    return get_type_hints(worker).get("return")


def _coerce(
    owner: str, name: str, value: Any, hint: Any, record: bool = False
) -> Any:
    """Coerce one JSON-shaped value onto a dataclass field's type.

    The coercions are exactly the ones a JSON round trip demands: int
    literals feeding float fields, lists feeding tuple fields and, for
    a ``record`` value, the non-finite strings feeding float fields.
    Anything else must already have the right type — silent lossy casts
    would fork store keys.  ``owner`` names the dataclass in messages
    (``"family 'bound'"``); they are built only on failure, because
    every stored record a run reads back passes through here.
    """
    if hint in _SCALARS:
        if record and hint is float and value in _NON_FINITE:
            return float(value)
        expected = (int, float) if hint is float else hint
        # bool is an int subclass, but never a number or a count.
        if not isinstance(value, expected) or (
            isinstance(value, bool) and hint is not bool
        ):
            raise ValueError(
                f"field {name!r} of {owner} expects {_SCALARS[hint]}, "
                f"got {value!r}"
            )
        return float(value) if hint is float else value
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(
                f"field {name!r} of {owner} expects a list, got {value!r}"
            )
        args = get_args(hint)
        if not args or args[-1] is not Ellipsis:
            return tuple(value)
        try:
            return tuple(
                _coerce(owner, name, item, args[0], record) for item in value
            )
        except ValueError:
            # Name the offending element; only a failure pays for it.
            return tuple(
                _coerce(owner, f"{name}[{i}]", item, args[0], record)
                for i, item in enumerate(value)
            )
    return value


def _frozen_dataclass(cls: Any) -> bool:
    return (
        isinstance(cls, type)
        and is_dataclass(cls)
        and cls.__dataclass_params__.frozen
    )


def _decodable(hint: Any, mapping: bool = True) -> bool:
    """Whether a record column (or, for a ``dict[str, T]`` field, its
    dotted ``name.key`` columns) decodes onto ``hint``."""
    if hint in _SCALARS:
        return True
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        return args[1:] == (Ellipsis,) and _decodable(args[0], False)
    return (
        mapping
        and origin is dict
        and args[:1] == (str,)
        and _decodable(args[1], False)
    )


def _decode_record(
    result_type: type,
    owner: str,
    columns: tuple[tuple[str, Any], ...],
    mappings: tuple[tuple[str, Any], ...],
    record: Mapping[str, Any],
) -> Any:
    """One record -> ``result_type``; see :func:`record_decoder`."""
    values = {
        name: _coerce(owner, name, record[name], hint, True)
        for name, hint in columns
    }
    for name, hint in mappings:
        # sinks.as_record splats a mapping into ``name.key`` columns.
        prefix = f"{name}."
        values[name] = {
            key[len(prefix):]: _coerce(owner, key, value, hint, True)
            for key, value in record.items()
            if key.startswith(prefix)
        }
    return result_type(**values)


@lru_cache(maxsize=None)
def record_decoder(result_type: type) -> Decoder:
    """The decoder rebuilding a ``result_type`` from its sink/store record.

    Derived from the frozen result dataclass: the inverse of
    :func:`repro.engine.sinks.as_record` after the strict-JSON round
    trip, so results served from a :class:`repro.store.ResultStore`
    equal freshly computed ones.  Fields may be ``float`` (which also
    reads the ``'inf'``/``'-inf'``/``'nan'`` strings the record holds
    for non-finite values), ``int``, ``bool``, ``str``, ``tuple[T,
    ...]`` of those, or ``dict[str, T]`` read back from its dotted
    ``name.key`` columns.

    Raises:
        ValueError: for a result type that is not a frozen dataclass,
            naming a field of any other type.
    """
    label = getattr(result_type, "__name__", repr(result_type))
    if not _frozen_dataclass(result_type):
        raise ValueError(
            f"result type {label!r} is not a frozen dataclass, so its "
            "records have no typed form to decode back to"
        )
    columns, mappings = [], []
    for name, hint in _field_types(result_type).items():
        if not _decodable(hint):
            raise ValueError(
                f"field {name!r} of result {label!r} has type "
                f"{_type_label(hint)!r}, which no record decodes to; use "
                "float, int, bool, str, tuple[T, ...] or dict[str, T]"
            )
        if get_origin(hint) is dict:
            mappings.append((name, get_args(hint)[1]))
        else:
            columns.append((name, hint))
    return partial(
        _decode_record,
        result_type,
        f"result {label!r}",
        tuple(columns),
        tuple(mappings),
    )


@dataclass(frozen=True, slots=True)
class ScenarioFamily:
    """Everything the engine knows about one scenario shape.

    Attributes:
        name: Registry key (kebab-case, stable across releases — it is
            referenced by campaign specs and store manifests).
        scenario_type: The frozen scenario dataclass.
        worker: Module-level callable ``scenario -> result``, annotated
            with the frozen result dataclass it returns (see
            :attr:`decoder`).
        summary: One-line description for ``--help``-style listings.
        context_key: Optional callable ``scenario ->`` context key
            (see :mod:`repro.engine.context`) naming the shared context
            the scenario evaluates against; ``None`` for families
            without shared state.  Passed as ``group_by`` to the engine
            so grid slices sharing a key are evaluated together.
        field_help: ``(field name, one-line help)`` pairs documenting
            the scenario dataclass's fields; surfaced through
            :meth:`axes` to the CLI, docs generator and campaign
            error messages.
    """

    name: str
    scenario_type: type
    worker: Callable[[Any], Any]
    summary: str
    context_key: Callable[[Any], Any] | None = None
    field_help: tuple[tuple[str, str], ...] = ()

    @property
    def decoder(self) -> Decoder:
        """The record decoder of the worker's annotated result type
        (:func:`record_decoder`)."""
        return record_decoder(_result_type(self.worker))

    def axes(self) -> tuple[AxisSpec, ...]:
        """The family's sweepable axes, in scenario-field order.

        One :class:`AxisSpec` per scenario dataclass field — name, type
        label, required/default, and the registered help string — so
        frontends can render a family's whole parameter surface (CLI
        listings, the generated ``docs/api.md`` tables) from the
        registry alone.
        """
        hints = _field_types(self.scenario_type)
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
        _frozen_dataclass(scenario),
        f"scenario type {scenario.__name__!r} of family {family.name!r} "
        "must be a frozen dataclass: the store keys the scenario value, "
        "and a mutable one could drift between keying and evaluation",
    )
    for role in ("worker", "context_key"):
        func = getattr(family, role)
        require(
            func is None or _importable(func),
            f"{role} of family {family.name!r} "
            f"({getattr(func, '__qualname__', func)!r}) is not importable "
            "by its qualified name, so it cannot pickle into the engine's "
            "process pool; define it at module top level",
        )
    result = _result_type(family.worker)
    require(
        result is not None,
        f"worker of family {family.name!r} "
        f"({family.worker.__qualname__!r}) has no return annotation; the "
        "store decodes its records by the result dataclass it returns",
    )
    record_decoder(result)  # refuses a result that no record decodes to
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
    type a frozen dataclass, its worker and context key importable by
    qualified name (they pickle into the engine's process pool), the
    worker's return annotation a result type :func:`record_decoder`
    accepts, and a non-empty ``field_help`` must document exactly the
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
            summary="Algorithm 1 vs Eq. 4 delay bounds over (function, Q) "
            "grids (the Figure 5 shape)",
            context_key=sweeps.bound_context_key,
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
            summary="fixed-priority delay-aware acceptance studies on "
            "generated task sets (the EXT-D shape)",
            context_key=sweeps.study_context_key,
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
            summary="simulator runs comparing observed preemption delay "
            "against Algorithm 1's bound (Theorem 1 at sweep scale)",
            context_key=families.sim_context_key,
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
            summary="EDF delay-aware acceptance studies with "
            "Bertogna-Baruah NPR lengths",
            context_key=families.edf_study_context_key,
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
