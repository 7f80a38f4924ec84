"""Typed run requests: *what* to evaluate, separated from *how*.

A :class:`RunRequest` freezes one workload invocation — the workload
name (a :mod:`repro.api.workloads` registry key), its parameters, and
the :class:`~repro.api.options.ExecutionOptions` describing how to
evaluate it.  Requests are plain frozen dataclasses: hashable enough to
log, compare and replay, and the single argument
:meth:`repro.api.Workbench.run` accepts.

The scenario families of the engine registry are reached through the
``campaign`` workload: :meth:`RunRequest.family` builds the inline
campaign spec for a family + axes + defaults, and
:meth:`RunRequest.campaign` wraps a spec file, mapping or built-in
name.  Figure and validation workloads (``fig2``/``fig4``/``fig5``/
``validate``/``study``/``sweep``) are addressed by name with plain
keyword parameters.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.api.options import ExecutionOptions
from repro.utils.checks import require


#: Tag marking a tuple produced by freezing a mapping, so thawing can
#: tell real mappings apart from lists that merely look pair-shaped.
_MAPPING_TAG = "__frozen_mapping__"

#: Exact types that freeze and thaw to themselves, read before any
#: ``Mapping`` ABC check (which costs far more than a type lookup).
_SCALARS = frozenset({str, int, float, bool, type(None)})


class _FrozenParams(tuple):
    """Parameter pairs a :class:`RunRequest` already froze and checked.

    A request built from another request's ``params`` (a tuple of this
    type) skips freezing and checking them again; any other tuple, a
    slice or concatenation of this one included, is frozen as usual.
    """

    __slots__ = ()


def _freeze(value: Any) -> Any:
    """Coerce JSON-shaped parameter values into hashable frozen forms."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is dict or (
        kind is not list and kind is not tuple and isinstance(value, Mapping)
    ):
        return (
            _MAPPING_TAG,
            tuple((str(k), _freeze(v)) for k, v in value.items()),
        )
    if kind is list or kind is tuple or isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze`; only tagged tuples become dicts."""
    if type(value) in _SCALARS:
        return value
    if (
        isinstance(value, tuple)
        and len(value) == 2
        and value[0] == _MAPPING_TAG
        and isinstance(value[1], tuple)
    ):
        return {key: _thaw(inner) for key, inner in value[1]}
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class RunRequest:
    """One frozen workload invocation.

    Attributes:
        workload: Registry key (see
            :func:`repro.api.workloads.workload_names`).
        params: Frozen ``(name, value)`` parameter pairs; mappings and
            lists are recursively frozen to tuples.  Use
            :meth:`params_dict` (or :meth:`make`) rather than building
            the tuples by hand.  Passing another request's ``params``
            reuses them as they are, without freezing them again.
        options: Execution options (jobs, store, resume, shard, sinks).
    """

    workload: str
    params: tuple[tuple[str, Any], ...] = field(default=())
    options: ExecutionOptions = field(default_factory=ExecutionOptions)

    def __post_init__(self) -> None:
        require(
            bool(self.workload),
            "RunRequest needs a non-empty workload name",
        )
        if type(self.params) is _FrozenParams:
            return
        frozen = _FrozenParams(
            (str(name), _freeze(value)) for name, value in self.params
        )
        names = [name for name, _ in frozen]
        require(
            len(set(names)) == len(names),
            f"RunRequest repeats parameter(s): "
            f"{', '.join(sorted({n for n in names if names.count(n) > 1}))}",
        )
        object.__setattr__(self, "params", frozen)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def make(
        cls,
        workload: str,
        options: ExecutionOptions | None = None,
        **params: Any,
    ) -> "RunRequest":
        """Build a request from keyword parameters.

        ``RunRequest.make("fig5", points=40, knots=2048)`` is the
        ergonomic spelling of the frozen-pairs constructor.
        """
        return cls(
            workload=workload,
            params=tuple(params.items()),
            options=options if options is not None else ExecutionOptions(),
        )

    @classmethod
    def campaign(
        cls,
        spec: str | Mapping[str, Any],
        overrides: Mapping[str, Any] | None = None,
        options: ExecutionOptions | None = None,
    ) -> "RunRequest":
        """A campaign run from a spec mapping, spec file path or
        built-in name (``fig5``, ``study``, ``sim-validate``,
        ``edf-study``), optionally with ``--set``-style overrides."""
        return cls.make(
            "campaign",
            options,
            spec=spec if isinstance(spec, str) else dict(spec),
            set=dict(overrides) if overrides else {},
            collect=True,
        )

    @classmethod
    def family(
        cls,
        family: str,
        axes: Mapping[str, Any],
        defaults: Mapping[str, Any] | None = None,
        name: str | None = None,
        options: ExecutionOptions | None = None,
    ) -> "RunRequest":
        """A campaign run over one registered scenario family.

        The inline spec form of the facade: name a family from the
        engine registry, give each swept field an axis (see
        :mod:`repro.campaign.samplers`) and fix the rest with
        ``defaults``::

            RunRequest.family(
                "bound",
                axes={"q": {"grid": [50.0, 100.0]},
                      "function": {"grid": ["gaussian1"]}},
                defaults={"knots": 256},
            )
        """
        spec: dict[str, Any] = {"family": family, "axes": dict(axes)}
        if defaults:
            spec["defaults"] = dict(defaults)
        if name is not None:
            spec["name"] = name
        return cls.campaign(spec, options=options)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def params_dict(self) -> dict[str, Any]:
        """The parameters as a plain dict (frozen mappings thawed)."""
        return {name: _thaw(value) for name, value in self.params}
