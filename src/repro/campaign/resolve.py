"""Resolve a campaign argument — mapping, spec file or built-in name.

The CLI and the :mod:`repro.api` ``campaign`` workload share one
resolution rule, implemented here: an inline mapping is used as-is, a
``.json``/``.toml`` file is loaded (``--set`` overrides its
``defaults``), and anything else must name a built-in campaign
(``--set`` feeds the builtin factory's parameters).  Campaigns run
through the facade: ``Workbench().run(RunRequest.campaign(...))``.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any


def parse_set_overrides(pairs: Iterable[str]) -> dict[str, Any]:
    """Parse repeated ``--set key=value`` flags.

    Values are decoded as JSON when possible (``5`` -> int, ``0.5`` ->
    float, ``[1,2]`` -> list, ``true`` -> bool) and fall back to plain
    strings, so ``--set policy=edf`` needs no quoting.
    """
    overrides: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(
                f"invalid --set {pair!r}: expected key=value"
            )
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    return overrides


def _apply_overrides(
    spec: Mapping[str, Any], overrides: Mapping[str, Any]
) -> dict[str, Any]:
    """A copy of ``spec`` with ``overrides`` merged into its
    ``defaults`` (the ``--set`` rule for mapping/file specs)."""
    spec = dict(spec)
    if overrides:
        defaults = dict(spec.get("defaults", {}))
        defaults.update(overrides)
        spec["defaults"] = defaults
    return spec


def resolve_spec(
    spec_arg: str | Mapping[str, Any], overrides: Mapping[str, Any]
) -> dict[str, Any]:
    """Turn a campaign argument into a spec mapping.

    An inline mapping wins (``overrides`` update its ``defaults``).  A
    path that exists is loaded as a spec file (same override rule);
    otherwise the argument must name a built-in campaign (``overrides``
    feed the builtin factory's parameters).
    """
    from repro.campaign.builtin import builtin_campaign, builtin_names
    from repro.campaign.spec import load_spec

    if isinstance(spec_arg, Mapping):
        return _apply_overrides(spec_arg, overrides)

    path = Path(spec_arg)
    # A spec-shaped path (.json/.toml regular file) wins; otherwise the
    # built-in names stay reachable even when a directory or stray file
    # happens to carry the same name.
    is_spec_file = path.is_file() and path.suffix.lower() in (
        ".json",
        ".toml",
    )
    if not is_spec_file and spec_arg in builtin_names():
        return builtin_campaign(spec_arg, **overrides)
    if path.is_file():
        return _apply_overrides(load_spec(path), overrides)
    raise ValueError(
        f"campaign spec {spec_arg!r} is neither an existing spec file "
        f"nor a built-in campaign (available: {', '.join(builtin_names())})"
    )

