"""Strict-JSON value mapping shared by the sinks and the result store.

Sweep records may legitimately contain non-finite floats (a diverged
bound is ``inf``), but strict JSON has no syntax for them and
``json.dump`` would emit bare ``Infinity``/``NaN`` tokens that ``jq``,
pandas and every non-Python consumer reject.  Both the streaming sinks
(:mod:`repro.engine.sinks`) and the persistent store
(:mod:`repro.store.backend`) therefore route every value through
:func:`json_safe` — one definition, so a record checkpointed to the
store serializes byte-identically to one streamed straight to a sink.
:func:`field_names` is the one memo of a dataclass's field names that
the sinks' records and the store's canonical keys are both read with.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any


@functools.lru_cache(maxsize=64)
def field_names(cls: type) -> tuple[str, ...]:
    """The field names of dataclass ``cls``, in declaration order."""
    return tuple(field.name for field in dataclasses.fields(cls))


def json_safe(value: Any) -> Any:
    """Map non-finite floats to their ``repr`` strings; pass the rest.

    Returns ``'inf'``, ``'-inf'`` or ``'nan'`` for the three non-finite
    floats, and ``value`` unchanged otherwise.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf', '-inf' or 'nan'
    return value
