"""The derived record decoder against the hand-written ones it replaced.

Each result family used to carry its own ``*_from_record`` inverse of
``as_record``.  :func:`repro.engine.record_decoder` derives that inverse
from the frozen result dataclass instead; frozen copies of the five
hand-written decoders stay here as the reference it must agree with,
over the same ``as_record`` -> ``record_line`` -> ``json.loads`` round
trip a stored record takes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import (
    BoundResult,
    EdfStudyResult,
    SimResult,
    StudyResult,
    as_record,
    get_family,
    record_decoder,
    record_line,
)
from repro.experiments.fig4 import Fig4Data
from repro.experiments.functions_fig4 import FIG4_NAMES

# ----------------------------------------------------------------------
# Frozen copies of the deleted hand-written decoders (the reference)
# ----------------------------------------------------------------------


def _record_float(value: object) -> float:
    if isinstance(value, str):
        return float(value)
    assert isinstance(value, (int, float))
    return float(value)


def bound_result_from_record(record: Mapping[str, object]) -> BoundResult:
    return BoundResult(
        function=str(record["function"]),
        q=_record_float(record["q"]),
        algorithm1=_record_float(record["algorithm1"]),
        state_of_the_art=_record_float(record["state_of_the_art"]),
        converged=bool(record["converged"]),
        preemptions=int(record["preemptions"]),
    )


def study_result_from_record(record: Mapping[str, object]) -> StudyResult:
    accepted = record["accepted"]
    assert isinstance(accepted, (list, tuple))
    return StudyResult(
        utilization=_record_float(record["utilization"]),
        seed=int(record["seed"]),
        admitted=bool(record["admitted"]),
        accepted=tuple(bool(v) for v in accepted),
    )


def sim_result_from_record(record: Mapping[str, object]) -> SimResult:
    return SimResult(
        utilization=_record_float(record["utilization"]),
        seed=int(record["seed"]),
        admitted=bool(record["admitted"]),
        checked_jobs=int(record["checked_jobs"]),
        preemptions=int(record["preemptions"]),
        max_tightness=_record_float(record["max_tightness"]),
        bound_respected=bool(record["bound_respected"]),
    )


def edf_study_result_from_record(
    record: Mapping[str, object],
) -> EdfStudyResult:
    accepted = record["accepted"]
    assert isinstance(accepted, (list, tuple))
    return EdfStudyResult(
        utilization=_record_float(record["utilization"]),
        seed=int(record["seed"]),
        admitted=bool(record["admitted"]),
        accepted=tuple(bool(v) for v in accepted),
    )


def fig4_data_from_record(record: Mapping[str, object]) -> Fig4Data:
    return Fig4Data(
        ts=tuple(record["ts"]),
        series={name: tuple(record[f"series.{name}"]) for name in FIG4_NAMES},
        interpretation=record["interpretation"],
    )


REFERENCE = {
    BoundResult: bound_result_from_record,
    StudyResult: study_result_from_record,
    SimResult: sim_result_from_record,
    EdfStudyResult: edf_study_result_from_record,
    Fig4Data: fig4_data_from_record,
}

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Record floats: non-finite ones travel as 'inf'/'-inf'/'nan' strings,
#: int-valued ones as JSON numbers like ``3.0``.
record_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0]),
    st.integers(-(10**6), 10**6).map(float),
)
#: Tuple-valued fields pass through ``json_safe`` unmapped, so a stored
#: tuple only ever holds finite floats.
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6).map(float),
)
verdicts = st.lists(st.booleans(), max_size=6).map(tuple)

results = st.one_of(
    st.builds(
        BoundResult,
        function=st.text(),
        q=record_floats,
        algorithm1=record_floats,
        state_of_the_art=record_floats,
        converged=st.booleans(),
        preemptions=st.integers(),
    ),
    st.builds(
        StudyResult,
        utilization=record_floats,
        seed=st.integers(),
        admitted=st.booleans(),
        accepted=verdicts,
    ),
    st.builds(
        SimResult,
        utilization=record_floats,
        seed=st.integers(),
        admitted=st.booleans(),
        checked_jobs=st.integers(min_value=0),
        preemptions=st.integers(min_value=0),
        max_tightness=record_floats,
        bound_respected=st.booleans(),
    ),
    st.builds(
        EdfStudyResult,
        utilization=record_floats,
        seed=st.integers(),
        admitted=st.booleans(),
        accepted=verdicts,
    ),
    st.builds(
        Fig4Data,
        ts=st.lists(finite_floats, max_size=5).map(tuple),
        series=st.fixed_dictionaries(
            {
                name: st.lists(finite_floats, max_size=5).map(tuple)
                for name in FIG4_NAMES
            }
        ),
        interpretation=st.text(),
    ),
)


def stored(result):
    """The record a store hands back for ``result``."""
    return json.loads(record_line(as_record(result)))


def snapshot(result):
    """Type plus per-field ``repr``: tells ``3`` from ``3.0`` and
    ``True`` from ``1``, and matches NaN with NaN (``==`` does neither).
    A mapping field is compared by its items, not their order."""
    return type(result), [
        (
            field.name,
            repr(sorted(value.items()))
            if isinstance(value := getattr(result, field.name), dict)
            else repr(value),
        )
        for field in fields(result)
    ]


@given(results)
def test_derived_decoder_matches_the_hand_written_one(result):
    record = stored(result)
    derived = record_decoder(type(result))(record)
    assert snapshot(derived) == snapshot(REFERENCE[type(result)](record))
    # ... and, like the reference, hands back what the worker returned.
    assert snapshot(derived) == snapshot(result)


def reference_as_record(result):
    """``as_record`` as it was, through ``dataclasses.asdict``."""
    record = {}
    for key, value in dataclasses.asdict(result).items():
        if isinstance(value, Mapping):
            for sub_key, sub_value in value.items():
                record[f"{key}.{sub_key}"] = sub_value
        else:
            record[key] = value
    return record


@given(results)
def test_records_match_the_deep_copying_reference(result):
    # Same columns in the same order (a CSV header is the first record's
    # keys) and the same bytes through record_line, for the four built-in
    # families and Fig4Data's dotted series.* columns.
    record, reference = as_record(result), reference_as_record(result)
    assert list(record) == list(reference)
    assert record_line(record) == record_line(reference)


@pytest.mark.parametrize(
    "name, result_type",
    [
        ("bound", BoundResult),
        ("study", StudyResult),
        ("sim", SimResult),
        ("edf-study", EdfStudyResult),
    ],
)
def test_family_decoder_is_its_result_types(name, result_type):
    assert get_family(name).decoder is record_decoder(result_type)


def test_repeated_plans_resolve_type_hints_once(monkeypatch):
    """A served job plans its request and reads the family decoder:
    after the first plan of a family neither resolves a type hint
    again, and clearing the memos (as perfbench does between jobs)
    makes the next plan pay for them once more."""
    import repro.engine.registry as registry
    from repro.api import RunRequest
    from repro.api.plan import plan_scenarios
    from repro.api.workloads import get_workload

    request = RunRequest.family(
        "bound",
        axes={"q": {"grid": [60.0, 120.0]}},
        defaults={"function": "gaussian1", "knots": 48},
    )
    params = get_workload(request.workload).resolve_params(
        request.params_dict()
    )
    resolved = []
    real = registry.get_type_hints

    def counting(*args, **kwargs):
        resolved.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(registry, "get_type_hints", counting)
    first = plan_scenarios(request.workload, params)
    resolved.clear()
    for _ in range(3):
        plan = plan_scenarios(request.workload, params)
        assert plan.decode is first.decode
        assert plan.scenarios == first.scenarios
    assert resolved == []

    registry._field_types.cache_clear()
    registry._result_type.cache_clear()
    plan_scenarios(request.workload, params)
    assert resolved


def test_non_finite_floats_round_trip_from_their_strings():
    decode = record_decoder(BoundResult)
    record = stored(BoundResult("bimodal", 12.0, math.inf, -math.inf, False, 0))
    assert record["algorithm1"] == "inf"
    decoded = decode(record)
    assert decoded.algorithm1 == math.inf
    assert decoded.state_of_the_art == -math.inf
    assert math.isnan(decode({**record, "q": "nan"}).q)


@pytest.mark.parametrize("text", ["Infinity", "INF", "1.5", "", "none"])
def test_other_strings_in_a_float_field_are_refused(text):
    record = stored(BoundResult("bimodal", 12.0, 1.0, 2.0, True, 3))
    with pytest.raises(ValueError, match="'algorithm1' of result 'BoundResult'"):
        record_decoder(BoundResult)({**record, "algorithm1": text})


def test_mapping_fields_read_their_dotted_columns():
    data = Fig4Data(
        ts=(0.0, 1.0),
        series={"b": (2.0, 3.0), "a": (4.0, 5.0)},
        interpretation="literal",
    )
    record = stored(data)
    assert "series.a" in record and "series" not in record
    assert record_decoder(Fig4Data)(record) == data


@dataclass(frozen=True)
class Listed:
    values: list[float]


@dataclass(frozen=True)
class Nested:
    inner: dict[str, dict[str, float]]


@dataclass
class Mutable:
    q: float


@pytest.mark.parametrize(
    "result_type, fragment",
    [
        (Listed, "'values' of result 'Listed'"),
        (Nested, "'inner' of result 'Nested'"),
        (Mutable, "'Mutable' is not a frozen dataclass"),
        (dict, "'dict' is not a frozen dataclass"),
    ],
)
def test_undecodable_result_types_are_refused(result_type, fragment):
    with pytest.raises(ValueError, match=fragment):
        record_decoder(result_type)
