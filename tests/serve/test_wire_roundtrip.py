"""Property tests: wire serialization preserves store cache keys.

The serve contract rests on one invariant: a request rebuilt from its
wire JSON compiles to the *same scenario grid with the same
content-addressed store keys* as the original.  If that ever broke, a
served request could silently address different store rows than a
local run — cache poisoning, not caching.  These tests property-check
the invariant for every registered scenario family (axes drawn through
the campaign samplers) and for the ``sweep`` workload, plus exactness
of the :class:`~repro.api.options.ExecutionOptions` round trip.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.options import ExecutionOptions, SinkSpec
from repro.api.plan import plan_scenarios
from repro.api.request import RunRequest
from repro.api.wire import (
    WIRE_VERSION,
    dumps_request,
    loads_request,
    options_from_wire,
    options_to_wire,
    request_from_wire,
    request_to_wire,
)
from repro.api.workloads import get_workload
from repro.engine.registry import family_names, get_family
from repro.store.keys import scenario_key

# ----------------------------------------------------------------------
# strategies: valid values per scenario-family field
# ----------------------------------------------------------------------

_ROUND = 4


def _rounded(lo: float, hi: float):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    ).map(lambda x: round(x, _ROUND))


#: Per-field value strategies (sweepable axes).
_FIELD_VALUES = {
    "function": st.sampled_from(["gaussian1", "gaussian2", "bimodal"]),
    "q": _rounded(10.0, 400.0),
    "knots": st.integers(min_value=16, max_value=128),
    "utilization": _rounded(0.1, 0.9),
    "seed": st.integers(min_value=0, max_value=2**16),
    "n_tasks": st.integers(min_value=2, max_value=8),
    "q_fraction": _rounded(0.1, 0.9),
    "delay_height": _rounded(0.05, 0.5),
    "policy": st.sampled_from(["fp", "edf"]),
    "horizon_factor": _rounded(1.0, 3.0),
    "sporadic": st.booleans(),
}

#: Fallback defaults for required fields not swept as axes.
_FIELD_DEFAULTS = {
    "function": "gaussian1",
    "q": 100.0,
    "utilization": 0.5,
    "seed": 1,
    "n_tasks": 4,
    "q_fraction": 0.5,
    "delay_height": 0.1,
    "methods": ["eq4"],
}


def _axis_strategy(field: str):
    """An axis mapping for ``field``: grid, or linspace for floats."""
    values = _FIELD_VALUES[field]
    grid = st.lists(values, min_size=1, max_size=3, unique=True).map(
        lambda vs: {"grid": vs}
    )
    if field in ("q", "utilization", "q_fraction", "delay_height"):
        lo, hi = (10.0, 100.0), (150.0, 400.0)
        if field != "q":
            lo, hi = (0.1, 0.4), (0.5, 0.9)
        linspace = st.tuples(
            _rounded(*lo), _rounded(*hi), st.integers(2, 4)
        ).map(
            lambda t: {
                "linspace": {"start": t[0], "stop": t[1], "points": t[2]}
            }
        )
        return st.one_of(grid, linspace)
    return grid


@st.composite
def family_requests(draw) -> RunRequest:
    """A valid inline-spec campaign request over a registered family."""
    family = get_family(draw(st.sampled_from(family_names())))
    axes_specs = family.axes()
    sweepable = [a.name for a in axes_specs if a.name in _FIELD_VALUES]
    chosen = draw(
        st.lists(
            st.sampled_from(sweepable), min_size=1, max_size=2, unique=True
        )
    )
    axes = {name: draw(_axis_strategy(name)) for name in chosen}
    defaults = {
        a.name: _FIELD_DEFAULTS[a.name]
        for a in axes_specs
        if a.required and a.name not in axes
    }
    return RunRequest.family(family.name, axes=axes, defaults=defaults)


@st.composite
def sweep_requests(draw) -> RunRequest:
    """A valid ``sweep`` workload request."""
    return RunRequest.make(
        "sweep",
        points=draw(st.integers(min_value=2, max_value=12)),
        knots=draw(st.integers(min_value=16, max_value=128)),
    )


def _plan_keys(request: RunRequest) -> tuple[dict, list[str]]:
    """Compile the request's plan; return (manifest, store keys)."""
    params = get_workload(request.workload).resolve_params(
        request.params_dict()
    )
    plan = plan_scenarios(request.workload, params)
    keys = [scenario_key(s, "test-fingerprint") for s in plan.scenarios]
    return plan.manifest, keys


# ----------------------------------------------------------------------
# the invariant: wire round trip preserves store keys
# ----------------------------------------------------------------------


class TestCacheKeyPreservation:
    @settings(max_examples=40, deadline=None)
    @given(request=family_requests())
    def test_family_request_round_trip_preserves_store_keys(
        self, request: RunRequest
    ) -> None:
        rebuilt = loads_request(dumps_request(request))
        assert rebuilt.workload == request.workload
        assert rebuilt.params_dict() == request.params_dict()
        manifest, keys = _plan_keys(request)
        manifest2, keys2 = _plan_keys(rebuilt)
        assert manifest2 == manifest
        assert keys2 == keys
        assert len(keys) > 0

    @settings(max_examples=15, deadline=None)
    @given(request=sweep_requests())
    def test_sweep_request_round_trip_preserves_store_keys(
        self, request: RunRequest
    ) -> None:
        rebuilt = loads_request(dumps_request(request))
        assert _plan_keys(rebuilt) == _plan_keys(request)

    @settings(max_examples=40, deadline=None)
    @given(request=family_requests())
    def test_wire_json_is_stable_under_double_round_trip(
        self, request: RunRequest
    ) -> None:
        # dumps(loads(dumps(x))) == dumps(x): the wire form is a fixed
        # point, so proxies may re-serialize without changing identity.
        once = dumps_request(request)
        assert dumps_request(loads_request(once)) == once


# ----------------------------------------------------------------------
# options round trip
# ----------------------------------------------------------------------


@st.composite
def execution_options(draw) -> ExecutionOptions:
    shard = draw(
        st.one_of(
            st.none(),
            st.tuples(st.integers(1, 4), st.integers(4, 6)).map(
                lambda t: f"{t[0]}/{t[1]}"
            ),
        )
    )
    sinks = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["out.jsonl", "out.csv", "results/x"]),
                st.sampled_from([None, "jsonl", "csv"]),
            ).map(lambda t: SinkSpec(t[0], t[1])),
            max_size=2,
        )
    )
    return ExecutionOptions(
        jobs=draw(st.one_of(st.none(), st.integers(1, 8))),
        chunk=draw(st.one_of(st.none(), st.integers(1, 64))),
        store=draw(st.one_of(st.none(), st.just("store.sqlite"))),
        resume=draw(st.booleans()) if shard is None else False,
        shard=shard,
        sinks=tuple(sinks),
        format=draw(st.sampled_from(["jsonl", "csv"])),
        fail_after=draw(st.one_of(st.none(), st.integers(1, 100))),
    )


class TestOptionsRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(options=execution_options())
    def test_options_survive_the_wire_exactly(
        self, options: ExecutionOptions
    ) -> None:
        wire = options_to_wire(options)
        json.dumps(wire)  # must be JSON-representable as-is
        rebuilt = options_from_wire(wire)
        for name in (
            "jobs", "chunk", "resume", "shard", "format", "fail_after",
        ):
            assert getattr(rebuilt, name) == getattr(options, name)
        assert rebuilt.store == (
            None if options.store is None else str(options.store)
        )
        assert [
            (s.path, s.resolved_format) for s in rebuilt.sinks
        ] == [(s.path, s.resolved_format) for s in options.sinks]

    def test_default_options_serialize_to_nothing(self) -> None:
        assert options_to_wire(ExecutionOptions()) == {}

    def test_open_store_instances_refuse_to_travel(self) -> None:
        class FakeStore:
            pass

        # Only a path can travel: options refuse anything else at
        # construction, before any wire encoding is attempted.
        with pytest.raises(ValueError, match="store must be a path"):
            ExecutionOptions(store=FakeStore())


# ----------------------------------------------------------------------
# malformed wire payloads fail loudly (never a stray traceback type)
# ----------------------------------------------------------------------


class TestWireValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            "not a mapping",
            {"version": 999, "workload": "sweep"},
            {"version": WIRE_VERSION},
            {"version": WIRE_VERSION, "workload": ""},
            {"version": WIRE_VERSION, "workload": "sweep", "bogus": 1},
            {"version": WIRE_VERSION, "workload": "sweep", "params": 3},
            {
                "version": WIRE_VERSION,
                "workload": "sweep",
                "options": {"bogus": 1},
            },
        ],
        ids=[
            "non-mapping",
            "bad-version",
            "missing-workload",
            "empty-workload",
            "unknown-field",
            "non-mapping-params",
            "unknown-option",
        ],
    )
    def test_malformed_payloads_raise_value_error(self, payload) -> None:
        with pytest.raises(ValueError):
            request_from_wire(payload)

    @pytest.mark.parametrize("name", ["numpy", "vectorized"])
    def test_removed_backend_option_is_an_unknown_field(self, name) -> None:
        with pytest.raises(ValueError, match="unknown field\\(s\\): backend"):
            request_from_wire(
                {
                    "version": WIRE_VERSION,
                    "workload": "sweep",
                    "options": {"backend": name},
                }
            )

    def test_loads_rejects_non_json(self) -> None:
        with pytest.raises(ValueError, match="not valid JSON"):
            loads_request("{nope")

    def test_version_field_is_present_on_the_wire(self) -> None:
        wire = request_to_wire(RunRequest.make("sweep", points=4))
        assert wire["version"] == WIRE_VERSION
