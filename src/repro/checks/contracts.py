"""Registry contract checkers (``RC``): declared surfaces agree.

The facade's registries promise more than "a name resolves": the
engine groups work by each family's *declared* shared-artifact context,
and the docs/CLI render each family's axes from its *declared* field
help.  Each of those declarations can silently drift from the code it
describes; these rules re-derive both sides and fail on disagreement:

* ``RC001`` — a registered family misses its shared-artifact
  declaration (``context_key`` + ``artifacts``);
* ``RC002`` — a family's ``field_help`` drifts from its scenario
  dataclass (an undocumented axis, or help for a field that no longer
  exists);
* ``RC005`` — a workload declares an unknown shared-flag group, or a
  parameter whose name collides with one of its enabled groups' CLI
  flags.

Every rule takes its subjects as optional parameters so the fixture
tests can check fabricated registries.  (The wire field sets need no
rule: :mod:`repro.api.wire` derives them from the dataclasses.)
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable
from typing import Any

from repro.checks.model import Hits, registered_families, rule
from repro.checks.source import SourceTree

#: The shared execution-flag groups a workload may enable.
KNOWN_FLAG_GROUPS = frozenset({"engine", "store", "shard", "sink"})


@rule("RC001", "contracts", "scenario family missing its shared-artifact declaration")
def check_family_context(
    tree: SourceTree, families: Iterable[Any] | None = None
) -> Hits:
    """``RC001``: every family declares its shared-artifact context."""
    for family in families if families is not None else registered_families():
        file, line = tree.locate(family.scenario_type)
        if family.context_key is None:
            yield file, line, (
                f"family {family.name!r} declares no context_key; "
                "the engine cannot group its grid into "
                "shared-artifact contexts, so every scenario "
                "rebuilds per-group state from scratch"
            )
        elif not family.artifacts:
            yield file, line, (
                f"family {family.name!r} has a context_key but "
                "declares no artifacts; a grouping key without "
                "consumed artifacts buys nothing and hides what "
                "the worker actually reads"
            )


@rule("RC002", "contracts", "family field_help drifted from its scenario dataclass")
def check_family_axes(
    tree: SourceTree, families: Iterable[Any] | None = None
) -> Hits:
    """``RC002``: ``field_help`` covers the scenario dataclass exactly."""
    for family in families if families is not None else registered_families():
        file, line = tree.locate(family.scenario_type)
        declared = {name for name, _ in family.field_help}
        actual = {f.name for f in dataclasses.fields(family.scenario_type)}
        for missing in sorted(actual - declared):
            yield file, line, (
                f"family {family.name!r} axis {missing!r} has no "
                "field_help entry; the generated docs and campaign "
                "error messages would present an undocumented axis"
            )
        for stale in sorted(declared - actual):
            yield file, line, (
                f"family {family.name!r} documents axis {stale!r} "
                "which its scenario dataclass no longer has"
            )


def _group_dests() -> dict[str, set[str]]:
    """Each shared flag group's argparse dest names (from the CLI)."""
    from repro.cli import _EXECUTION_FLAGS

    return {
        group: {flag.lstrip("-").replace("-", "_") for flag, _ in flags}
        for group, flags in _EXECUTION_FLAGS.items()
    }


@rule("RC005", "contracts", "workload flag groups unknown or shadowed by parameters")
def check_workload_flags(
    tree: SourceTree, workloads: Iterable[Any] | None = None
) -> Hits:
    """``RC005``: workload flag groups exist and cannot shadow params."""
    if workloads is None:
        from repro.api.workloads import get_workload, workload_names

        workloads = [get_workload(name) for name in workload_names()]
    dests = _group_dests()
    for workload in workloads:
        file, line = tree.locate(workload.runner)
        for group in sorted(set(workload.flags) - KNOWN_FLAG_GROUPS):
            yield file, line, (
                f"workload {workload.name!r} enables unknown flag "
                f"group {group!r}; known groups: "
                f"{', '.join(sorted(KNOWN_FLAG_GROUPS))}"
            )
        enabled = {
            dest for group in workload.flags for dest in dests.get(group, set())
        }
        for param in workload.parameters:
            if param.name in enabled:
                yield file, line, (
                    f"workload {workload.name!r} parameter "
                    f"{param.name!r} collides with an enabled "
                    "shared execution flag; argparse would bind "
                    "one value to both surfaces"
                )
