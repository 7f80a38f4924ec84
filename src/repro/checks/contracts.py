"""Registry/wire contract checkers (``RC``): declared surfaces agree.

The facade's registries promise more than "a name resolves": the
engine groups work by each family's *declared* shared-artifact context,
the docs/CLI render each family's axes from its *declared* field help,
and the serve protocol round-trips requests through the *declared* wire field set.
Each of those declarations can silently drift from the code it
describes; these rules re-derive both sides and fail on disagreement:

* ``RC001`` — a registered family misses its shared-artifact
  declaration (``context_key`` + ``artifacts``);
* ``RC002`` — a family's ``field_help`` drifts from its scenario
  dataclass (an undocumented axis, or help for a field that no longer
  exists);
* ``RC004`` — the wire option/request field sets
  (:mod:`repro.api.wire`) drift from the
  :class:`~repro.api.options.ExecutionOptions` /
  :class:`~repro.api.request.RunRequest` dataclasses — the drift that
  would make a served request silently drop a new execution flag;
* ``RC005`` — a workload declares an unknown shared-flag group, or a
  parameter whose name collides with one of its enabled groups' CLI
  flags.

Every rule takes its subjects as optional parameters so the fixture
tests can check fabricated registries — which is also how
``tests/checks/test_contracts.py`` demonstrates that adding a field to
``ExecutionOptions`` without a matching wire entry fails the check.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.checks.model import Checker, Finding, register_check
from repro.checks.source import SourceTree

#: The shared execution-flag groups a workload may enable.
KNOWN_FLAG_GROUPS = frozenset({"engine", "store", "shard", "sink"})


def _registered_families() -> list[Any]:
    from repro.engine.registry import family_names, get_family

    return [get_family(name) for name in family_names()]


def _registered_workloads() -> list[Any]:
    from repro.api.workloads import get_workload, workload_names

    return [get_workload(name) for name in workload_names()]


# ----------------------------------------------------------------------
# RC001 / RC002 — scenario-family declarations
# ----------------------------------------------------------------------


def check_family_context(
    tree: SourceTree, families: Iterable[Any] | None = None
) -> Iterator[Finding]:
    """``RC001``: every family declares its shared-artifact context."""
    for family in families if families is not None else _registered_families():
        file, line = tree.locate(family.scenario_type)
        if family.context_key is None:
            yield Finding(
                code="RC001",
                file=file,
                line=line,
                severity="error",
                message=(
                    f"family {family.name!r} declares no context_key; "
                    "the engine cannot group its grid into "
                    "shared-artifact contexts, so every scenario "
                    "rebuilds per-group state from scratch"
                ),
            )
        elif not family.artifacts:
            yield Finding(
                code="RC001",
                file=file,
                line=line,
                severity="error",
                message=(
                    f"family {family.name!r} has a context_key but "
                    "declares no artifacts; a grouping key without "
                    "consumed artifacts buys nothing and hides what "
                    "the worker actually reads"
                ),
            )


def check_family_axes(
    tree: SourceTree, families: Iterable[Any] | None = None
) -> Iterator[Finding]:
    """``RC002``: ``field_help`` covers the scenario dataclass exactly."""
    for family in families if families is not None else _registered_families():
        file, line = tree.locate(family.scenario_type)
        declared = {name for name, _ in family.field_help}
        actual = {
            f.name for f in dataclasses.fields(family.scenario_type)
        }
        for missing in sorted(actual - declared):
            yield Finding(
                code="RC002",
                file=file,
                line=line,
                severity="error",
                message=(
                    f"family {family.name!r} axis {missing!r} has no "
                    "field_help entry; the generated docs and campaign "
                    "error messages would present an undocumented axis"
                ),
            )
        for stale in sorted(declared - actual):
            yield Finding(
                code="RC002",
                file=file,
                line=line,
                severity="error",
                message=(
                    f"family {family.name!r} documents axis {stale!r} "
                    "which its scenario dataclass no longer has"
                ),
            )


# ----------------------------------------------------------------------
# RC004 — wire format vs dataclass field sets
# ----------------------------------------------------------------------


def check_wire_contract(
    tree: SourceTree,
    options_cls: type | None = None,
    request_cls: type | None = None,
    wire_option_fields: Sequence[str] | None = None,
    wire_request_fields: Sequence[str] | None = None,
) -> Iterator[Finding]:
    """``RC004``: the wire field sets mirror the dataclasses exactly.

    A field added to :class:`ExecutionOptions` without a matching
    :mod:`repro.api.wire` entry would silently vanish on every served
    request (the server rebuilds the request from its wire form); a
    wire field without a dataclass field would crash the rebuild.  The
    same holds one level up for :class:`RunRequest` itself.
    """
    from repro.api import wire as wire_module

    if options_cls is None:
        from repro.api.options import ExecutionOptions

        options_cls = ExecutionOptions
    if request_cls is None:
        from repro.api.request import RunRequest

        request_cls = RunRequest
    if wire_option_fields is None:
        wire_option_fields = tuple(wire_module._SCALAR_OPTION_FIELDS) + tuple(
            wire_module._COMPOUND_OPTION_FIELDS
        )
    if wire_request_fields is None:
        wire_request_fields = tuple(wire_module._REQUEST_FIELDS)

    file, line = tree.locate(options_cls)
    declared = set(wire_option_fields)
    actual = {f.name for f in dataclasses.fields(options_cls)}
    for missing in sorted(actual - declared):
        yield Finding(
            code="RC004",
            file=file,
            line=line,
            severity="error",
            message=(
                f"{options_cls.__name__} field {missing!r} has no "
                "api/wire.py mapping; a served request would silently "
                "drop it (add it to the wire field tuples and bump "
                "WIRE_VERSION if the change is incompatible)"
            ),
        )
    for stale in sorted(declared - actual):
        yield Finding(
            code="RC004",
            file=file,
            line=line,
            severity="error",
            message=(
                f"api/wire.py maps option field {stale!r} which "
                f"{options_cls.__name__} no longer declares"
            ),
        )

    file, line = tree.locate(request_cls)
    declared = set(wire_request_fields)
    if "version" not in declared:
        yield Finding(
            code="RC004",
            file=file,
            line=line,
            severity="error",
            message=(
                "the wire request mapping does not reserve a 'version' "
                "key; decoders could not reject incompatible payloads"
            ),
        )
    declared.discard("version")  # envelope key, not a dataclass field
    actual = {f.name for f in dataclasses.fields(request_cls)}
    for missing in sorted(actual - declared):
        yield Finding(
            code="RC004",
            file=file,
            line=line,
            severity="error",
            message=(
                f"{request_cls.__name__} field {missing!r} is not in "
                "the wire request mapping; served submissions would "
                "silently drop it"
            ),
        )
    for stale in sorted(declared - actual):
        yield Finding(
            code="RC004",
            file=file,
            line=line,
            severity="error",
            message=(
                f"the wire request mapping names field {stale!r} which "
                f"{request_cls.__name__} no longer declares"
            ),
        )


# ----------------------------------------------------------------------
# RC005 — workload flag-group declarations
# ----------------------------------------------------------------------


def _group_dests() -> dict[str, set[str]]:
    """Each shared flag group's argparse dest names (from the CLI)."""
    from repro.cli import _EXECUTION_FLAGS

    return {
        group: {flag.lstrip("-").replace("-", "_") for flag, _ in flags}
        for group, flags in _EXECUTION_FLAGS.items()
    }


def check_workload_flags(
    tree: SourceTree, workloads: Iterable[Any] | None = None
) -> Iterator[Finding]:
    """``RC005``: workload flag groups exist and cannot shadow params."""
    dests = _group_dests()
    subjects = (
        workloads if workloads is not None else _registered_workloads()
    )
    for workload in subjects:
        file, line = tree.locate(workload.runner)
        for group in sorted(set(workload.flags) - KNOWN_FLAG_GROUPS):
            yield Finding(
                code="RC005",
                file=file,
                line=line,
                severity="error",
                message=(
                    f"workload {workload.name!r} enables unknown flag "
                    f"group {group!r}; known groups: "
                    f"{', '.join(sorted(KNOWN_FLAG_GROUPS))}"
                ),
            )
        enabled = {
            dest
            for group in workload.flags
            for dest in dests.get(group, set())
        }
        for param in workload.parameters:
            if param.name in enabled:
                yield Finding(
                    code="RC005",
                    file=file,
                    line=line,
                    severity="error",
                    message=(
                        f"workload {workload.name!r} parameter "
                        f"{param.name!r} collides with an enabled "
                        "shared execution flag; argparse would bind "
                        "one value to both surfaces"
                    ),
                )


def _register() -> None:
    register_check(
        Checker(
            code="RC001",
            group="contracts",
            severity="error",
            summary="scenario family missing its shared-artifact "
            "declaration",
            run=check_family_context,
        )
    )
    register_check(
        Checker(
            code="RC002",
            group="contracts",
            severity="error",
            summary="family field_help drifted from its scenario "
            "dataclass",
            run=check_family_axes,
        )
    )
    register_check(
        Checker(
            code="RC004",
            group="contracts",
            severity="error",
            summary="wire field set drifted from "
            "ExecutionOptions/RunRequest",
            run=check_wire_contract,
        )
    )
    register_check(
        Checker(
            code="RC005",
            group="contracts",
            severity="error",
            summary="workload flag groups unknown or shadowed by "
            "parameters",
            run=check_workload_flags,
        )
    )


_register()
