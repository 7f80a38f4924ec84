"""The shared JSON encoders write what the per-call ``json.dumps`` wrote.

:func:`record_line`, :func:`dumps_record`, :func:`canonical_bytes` and
:func:`encode_frame` each reuse one module-level encoder instead of
building one per call.  These tests pin their output, byte for byte,
to the ``json.dumps`` calls they replaced, and pin the store keys of
every built-in family to the digests that calls produced.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.families import EdfStudyScenario, SimScenario
from repro.engine.sinks import record_line
from repro.engine.sweeps import BoundScenario, StudyScenario
from repro.serve.protocol import encode_frame
from repro.store import scenario_key
from repro.store.backend import dumps_record
from repro.store.keys import _encode, canonical_bytes
from repro.utils.jsonsafe import json_safe

_scalars = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
    | st.text(alphabet=st.characters(max_codepoint=0x1F600), max_size=12)
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=10,
)
_records = st.dictionaries(
    st.text(alphabet=st.characters(max_codepoint=0x3FF), max_size=8),
    _values,
    max_size=6,
)


def _outcome(encode, value):
    """What ``encode(value)`` returns, or the type of what it raises."""
    try:
        return encode(value)
    except ValueError as exc:  # non-finite floats nested in a tuple
        return type(exc)


def _safe(record):
    return {key: json_safe(value) for key, value in record.items()}


class TestSameBytesAsJsonDumps:
    @settings(max_examples=100, deadline=None)
    @given(_records)
    def test_record_line(self, record):
        assert _outcome(record_line, record) == _outcome(
            lambda r: json.dumps(_safe(r), sort_keys=True, allow_nan=False),
            record,
        )

    @settings(max_examples=100, deadline=None)
    @given(_records)
    def test_dumps_record(self, record):
        assert _outcome(dumps_record, record) == _outcome(
            lambda r: json.dumps(_safe(r), allow_nan=False), record
        )

    @settings(max_examples=100, deadline=None)
    @given(_values | _records)
    def test_canonical_bytes(self, value):
        assert canonical_bytes(value) == json.dumps(
            _encode(value),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        ).encode("ascii")

    @settings(max_examples=100, deadline=None)
    @given(_records)
    def test_encode_frame(self, frame):
        assert _outcome(encode_frame, frame) == _outcome(
            lambda f: json.dumps(f, separators=(",", ":"), allow_nan=False)
            .encode("utf-8")
            + b"\n",
            frame,
        )


#: One scenario per built-in family, with the key each had under the
#: per-call ``json.dumps`` and ``dataclasses.fields`` encoding.
_FAMILY_KEYS = [
    (
        BoundScenario("gaussian1", 60.0, knots=256),
        "f13a584be44826bf2fa63a92f1d9550b11e3811a3fc53ff0f7f924b944d6ddac",
    ),
    (
        BoundScenario("bimodal", float("inf"), knots=128),
        "93e216b55389924f5cf695806d6a70854ca17a2c2e57c90b396a46bf2b7241cd",
    ),
    (
        EdfStudyScenario(0.6, 3),
        "3bf2ce527d35c7133e63f7f75ac9d72de544ef459c5918f44d4eb8c99aae39aa",
    ),
    (
        SimScenario(0.55, 7, policy="edf", sporadic=True),
        "8ebede4238af148d21c8d7720e8a493cdf836ebb84944e6f0199114a02b2046f",
    ),
    (
        StudyScenario(0.7, 11, 6, 0.5, 0.05, ("oblivious", "eq4", "algorithm1")),
        "71b95394285cb4d7e748325b7dbab464af52ac7a90bc89f4cb8621fbe72a2578",
    ),
]


@pytest.mark.parametrize(("scenario", "key"), _FAMILY_KEYS)
def test_family_store_keys_are_unchanged(scenario, key):
    assert scenario_key(scenario, "pin") == key
