"""Campaign specs: validate and compile declarative sweep descriptions.

A *campaign spec* is a plain mapping (typically read from a JSON or
TOML file) describing a scenario grid without any Python::

    {
      "name": "fig5",
      "family": "bound",
      "axes": {
        "q":        {"logspace": {"start": 12.0, "stop": 2000.0, "points": 40}},
        "function": {"grid": ["gaussian1", "gaussian2", "bimodal"]}
      },
      "defaults": {"knots": 2048}
    }

:func:`compile_campaign` resolves the ``family`` through the engine's
registry (:mod:`repro.engine.registry`), expands every axis with the
samplers of :mod:`repro.campaign.samplers`, and instantiates one frozen
scenario per point of the cartesian product — axis order is
declaration order, first axis outermost (row-major), so the stream
order is part of the spec and byte-identical output is reproducible
from the spec alone.

Field values are validated and coerced against the scenario
dataclass's type hints: JSON integers feed ``float`` fields as exact
floats (so ``"q": 12`` and ``"q": 12.0`` address the same store key),
JSON lists feed ``tuple`` fields, and unknown or missing fields fail
with a message naming the family's real fields.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any

from repro.campaign.samplers import expand_axis, normalize_params
from repro.engine.registry import (
    ScenarioFamily,
    _coerce,
    _field_types,
    get_family,
)
from repro.utils.checks import require

#: Recognised top-level spec keys.
SPEC_KEYS = ("name", "description", "family", "axes", "defaults")


@dataclass(frozen=True)
class CompiledCampaign:
    """A spec compiled into a concrete, ordered scenario stream.

    Attributes:
        name: Campaign name (defaults to the family name).
        family: The resolved scenario family.
        scenarios: The frozen scenarios, in deterministic stream order.
        spec: The normalized spec — JSON-round-trippable, recorded as
            the store manifest so ``repro merge`` can recompile the
            exact same stream.
    """

    name: str
    family: ScenarioFamily
    scenarios: list[Any]
    spec: dict[str, Any]


def load_spec(path: Path | str) -> dict[str, Any]:
    """Read a campaign spec mapping from a ``.json`` or ``.toml`` file.

    Raises:
        ValueError: for unreadable/unsupported files or non-mapping
            content.
    """
    path = Path(path)
    require(path.exists(), f"campaign spec {path} does not exist")
    suffix = path.suffix.lower()
    if suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError as exc:  # pragma: no cover - py<3.11
            raise ValueError(
                f"cannot read {path}: TOML specs need Python >= 3.11 "
                "(tomllib); use a JSON spec instead"
            ) from exc
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    else:
        require(
            suffix == ".json",
            f"unsupported campaign spec format {suffix!r} for {path}; "
            "expected .json or .toml",
        )
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"campaign spec {path} is not valid JSON: {exc}") from exc
    require(
        isinstance(data, dict),
        f"campaign spec {path} must contain a mapping, got {type(data).__name__}",
    )
    return data


def _manifest_value(value: Any) -> Any:
    """Field-coerced value -> its JSON-stable manifest form.

    Coercion produces tuples for tuple fields, but the manifest lives
    as JSON (where tuples become lists); recording lists directly keeps
    ``set_manifest``'s equality check true across a store round trip.
    """
    if isinstance(value, tuple):
        return [_manifest_value(item) for item in value]
    return value


def _axis_items(axes: Any) -> dict[str, Any]:
    """Normalize the ``axes`` entry to an ordered name -> spec mapping.

    Axes are accepted either as a mapping (the natural authoring form;
    JSON/TOML preserve key order) or as a list of ``[name, spec]``
    pairs — the form :func:`compile_campaign` emits into the normalized
    spec, because the store manifest is serialized with sorted keys and
    a mapping would lose the axis order that defines the stream order.
    """
    if isinstance(axes, Mapping):
        items = list(axes.items())
    else:
        require(
            isinstance(axes, (list, tuple)),
            f"campaign 'axes' must be a mapping or a list of "
            f"[name, spec] pairs, got {axes!r}",
        )
        items = []
        for entry in axes:
            require(
                isinstance(entry, (list, tuple)) and len(entry) == 2,
                f"axes list entries must be [name, spec] pairs, got {entry!r}",
            )
            items.append((entry[0], entry[1]))
    require(len(items) > 0, "campaign spec needs at least one axis")
    names = [name for name, _ in items]
    require(
        len(set(names)) == len(names),
        f"campaign axes repeat name(s): "
        f"{', '.join(sorted({n for n in names if names.count(n) > 1}))}",
    )
    for name in names:
        require(
            isinstance(name, str) and name,
            f"axis names must be non-empty strings, got {name!r}",
        )
    return dict(items)


def compile_campaign(spec: Mapping[str, Any]) -> CompiledCampaign:
    """Validate ``spec`` and compile it into a scenario stream.

    Args:
        spec: The campaign spec mapping (see the module docstring).

    Returns:
        The :class:`CompiledCampaign` — family, ordered scenarios and
        the normalized manifest-ready spec.

    Raises:
        ValueError: for any structural problem — unknown keys, unknown
            family, axes/defaults naming fields the family does not
            have, missing required fields, or type mismatches.  Errors
            name the offending key and the valid alternatives.
    """
    require(
        isinstance(spec, Mapping),
        f"campaign spec must be a mapping, got {type(spec).__name__}",
    )
    unknown = [key for key in spec if key not in SPEC_KEYS]
    require(
        not unknown,
        f"campaign spec has unknown key(s) {', '.join(sorted(unknown))}; "
        f"expected a subset of {', '.join(SPEC_KEYS)}",
    )
    require("family" in spec, "campaign spec needs a 'family' key")
    family = get_family(spec["family"])
    name = spec.get("name", family.name)
    require(
        isinstance(name, str) and name,
        f"campaign name must be a non-empty string, got {name!r}",
    )

    axes = _axis_items(spec.get("axes", {}))
    defaults = spec.get("defaults", {})
    require(
        isinstance(defaults, Mapping),
        f"campaign 'defaults' must be a mapping, got {defaults!r}",
    )

    types = _field_types(family.scenario_type)
    for origin_name, keys in (("axes", axes), ("defaults", defaults)):
        bad = [key for key in keys if key not in types]
        require(
            not bad,
            f"{origin_name} name(s) {', '.join(sorted(bad))} are not fields "
            f"of family {family.name!r}; its fields are "
            f"{', '.join(types)}",
        )
    overlap = [key for key in defaults if key in axes]
    require(
        not overlap,
        f"field(s) {', '.join(sorted(overlap))} appear in both axes and "
        "defaults; pick one",
    )

    required = {
        field.name
        for field in fields(family.scenario_type)
        if field.default is MISSING and field.default_factory is MISSING
    }
    uncovered = sorted(required - set(axes) - set(defaults))
    require(
        not uncovered,
        f"family {family.name!r} requires field(s) {', '.join(uncovered)} "
        "to be covered by an axis or a default",
    )

    owner = f"family {family.name!r}"
    axis_names = list(axes)
    axis_values = [
        [
            _coerce(owner, axis, value, types[axis])
            for value in expand_axis(axis, axes[axis])
        ]
        for axis in axis_names
    ]
    fixed = {
        key: _coerce(owner, key, value, types[key])
        for key, value in defaults.items()
    }

    scenarios = [
        family.scenario_type(**fixed, **dict(zip(axis_names, combo)))
        for combo in itertools.product(*axis_values)
    ]

    # The normalized spec is the store manifest, and manifests gate
    # resume: JSON-equivalent specs (``1`` vs ``1.0``, an implicit vs
    # explicit range step) must normalize to the *same* mapping.  Axis
    # parameters take the sampler's canonical form; grid values and
    # defaults take the already field-coerced values.
    normalized_axes = []
    for axis, values in zip(axis_names, axis_values):
        ((kind, _),) = axes[axis].items()
        if kind == "grid":
            params: Any = [_manifest_value(v) for v in values]
        else:
            params = normalize_params(kind, axes[axis][kind])
        normalized_axes.append([axis, {kind: params}])
    normalized: dict[str, Any] = {
        "name": name,
        "family": family.name,
        "axes": normalized_axes,
        "defaults": {
            key: _manifest_value(value) for key, value in fixed.items()
        },
    }
    if "description" in spec:
        normalized["description"] = spec["description"]
    return CompiledCampaign(
        name=name, family=family, scenarios=scenarios, spec=normalized
    )
