"""The wire field sets are derived from the dataclasses they encode.

``repro.api.wire`` reads its option and request field tuples off
``ExecutionOptions`` and ``RunRequest`` at import time, so the two can
never drift: every field travels, and one that is not a JSON value
fails loudly on encode instead of vanishing from a served request.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.api import wire
from repro.api.options import ExecutionOptions
from repro.api.request import RunRequest


def test_option_fields_cover_the_dataclass_in_order():
    assert wire._SCALAR_OPTION_FIELDS == (
        "jobs", "chunk", "resume", "shard", "format", "fail_after",
    )
    assert set(wire._SCALAR_OPTION_FIELDS) | set(
        wire._COMPOUND_OPTION_FIELDS
    ) == {f.name for f in fields(ExecutionOptions)}


def test_request_fields_are_version_plus_every_request_field():
    assert wire._REQUEST_FIELDS == (
        "version", *(f.name for f in fields(RunRequest)),
    )


def test_a_non_json_option_value_fails_loudly_on_encode():
    request = RunRequest.make("sweep", ExecutionOptions(chunk=object()))
    with pytest.raises(ValueError, match="not wire-serializable"):
        wire.dumps_request(request)
