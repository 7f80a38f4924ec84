"""Wire (de)serialization of requests: the facade's network form.

:class:`~repro.api.request.RunRequest` is already wire-protocol-shaped
— a workload name plus JSON-shaped parameters plus validated execution
options — but its frozen in-memory form (tagged tuples, ``SinkSpec``
instances, ``Path`` objects) is not itself JSON.  This
module defines the canonical JSON mapping both directions:

* :func:`request_to_wire` / :func:`request_from_wire` — the full
  request, options included;
* :func:`options_to_wire` / :func:`options_from_wire` — the execution
  options alone.

The round trip is exact where it matters: a request rebuilt from its
wire form compiles to the **same scenario grid with the same
content-addressed store keys** (:func:`repro.store.scenario_key`), so a
client submitting a serialized request to :mod:`repro.serve` addresses
exactly the rows a local :meth:`~repro.api.Workbench.run` would.
``tests/serve/test_wire_roundtrip.py`` property-checks this for every
registered workload and scenario family.

Wire format (version :data:`WIRE_VERSION`)::

    {"version": 1,
     "workload": "campaign",
     "params":   {...},          # RunRequest.params_dict()
     "options":  {...}}          # omitted when all-default
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

from repro.api.options import ExecutionOptions, SinkSpec
from repro.api.request import RunRequest
from repro.utils.checks import require

#: Bump when the wire mapping changes incompatibly; checked on decode.
WIRE_VERSION = 1

#: ExecutionOptions fields that travel verbatim (JSON scalars).
_SCALAR_OPTION_FIELDS = (
    "jobs",
    "chunk",
    "resume",
    "shard",
    "format",
    "fail_after",
)

#: ExecutionOptions fields with bespoke wire encodings below.  Together
#: with the scalar tuple this must cover every ExecutionOptions field —
#: the RC004 contract check (repro.checks.contracts) enforces it.
_COMPOUND_OPTION_FIELDS = ("store", "results_dir", "sinks")

#: Top-level wire request keys; "version" plus every RunRequest field
#: (also enforced by RC004).
_REQUEST_FIELDS = ("version", "workload", "params", "options")


def options_to_wire(options: ExecutionOptions) -> dict[str, Any]:
    """The JSON mapping of one options object (defaults omitted)."""
    defaults = ExecutionOptions()
    wire: dict[str, Any] = {}
    for name in _SCALAR_OPTION_FIELDS:
        value = getattr(options, name)
        if value != getattr(defaults, name):
            wire[name] = value
    if options.store is not None:
        wire["store"] = str(options.store)
    if options.results_dir is not None:
        wire["results_dir"] = str(options.results_dir)
    if options.sinks:
        wire["sinks"] = [
            {"path": spec.path, "format": spec.format}
            for spec in options.sinks
        ]
    return wire


def options_from_wire(payload: Mapping[str, Any]) -> ExecutionOptions:
    """Rebuild :class:`ExecutionOptions` from its wire mapping."""
    require(
        isinstance(payload, Mapping),
        f"wire options must be a mapping, got {type(payload).__name__}",
    )
    known = set(_SCALAR_OPTION_FIELDS) | set(_COMPOUND_OPTION_FIELDS)
    unknown = sorted(set(payload) - known)
    require(
        not unknown,
        f"wire options carry unknown field(s): {', '.join(unknown)}",
    )
    kwargs: dict[str, Any] = {
        name: payload[name]
        for name in _SCALAR_OPTION_FIELDS
        if name in payload
    }
    if "store" in payload:
        kwargs["store"] = str(payload["store"])
    if "results_dir" in payload:
        kwargs["results_dir"] = str(payload["results_dir"])
    if "sinks" in payload:
        sinks = payload["sinks"]
        require(
            isinstance(sinks, (list, tuple)),
            f"wire options 'sinks' must be a list, got {sinks!r}",
        )
        kwargs["sinks"] = tuple(
            SinkSpec(str(spec["path"]), spec.get("format"))
            for spec in sinks
        )
    return ExecutionOptions(**kwargs)


def request_to_wire(request: RunRequest) -> dict[str, Any]:
    """The JSON mapping of one request (see the module docstring)."""
    wire: dict[str, Any] = {
        "version": WIRE_VERSION,
        "workload": request.workload,
        "params": request.params_dict(),
    }
    options = options_to_wire(request.options)
    if options:
        wire["options"] = options
    return wire


def request_from_wire(payload: Mapping[str, Any]) -> RunRequest:
    """Rebuild a :class:`RunRequest` from its wire mapping.

    Raises:
        ValueError: for non-mappings, unsupported wire versions,
            missing/odd fields — every malformed input fails with a
            message, never a ``KeyError``/``TypeError`` traceback, so
            the server can turn any bad submission into an error frame.
    """
    require(
        isinstance(payload, Mapping),
        f"wire request must be a mapping, got {type(payload).__name__}",
    )
    version = payload.get("version", WIRE_VERSION)
    require(
        version == WIRE_VERSION,
        f"unsupported wire version {version!r}; this build speaks "
        f"version {WIRE_VERSION}",
    )
    unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
    require(
        not unknown,
        f"wire request carries unknown field(s): {', '.join(unknown)}",
    )
    workload = payload.get("workload")
    require(
        isinstance(workload, str) and bool(workload),
        f"wire request needs a workload name, got {workload!r}",
    )
    params = payload.get("params", {})
    require(
        isinstance(params, Mapping),
        f"wire request 'params' must be a mapping, got {params!r}",
    )
    options = options_from_wire(payload.get("options", {}))
    return RunRequest(
        workload=workload,
        params=tuple(params.items()),
        options=options,
    )


def dumps_request(request: RunRequest) -> str:
    """One-line strict-JSON rendering of ``request``.

    Key order is *preserved*, never sorted: campaign ``axes`` are an
    ordered mapping (axis order defines grid enumeration order), so
    sorting would silently reorder the scenario grid.  Canonicalized
    ordering happens where identity is computed —
    :func:`repro.store.keys.canonical_bytes` — not on the transport.
    """
    try:
        return json.dumps(
            request_to_wire(request),
            separators=(",", ":"),
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"request is not wire-serializable: {exc}"
        ) from exc


def loads_request(text: str | bytes) -> RunRequest:
    """Parse the JSON produced by :func:`dumps_request`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"wire request is not valid JSON: {exc}") from exc
    return request_from_wire(payload)
