"""Argument-validation helpers.

All public entry points of the library validate their inputs eagerly and
raise :class:`ValueError` with a descriptive message, so that misuse fails
at the call site rather than deep inside an analysis loop.
"""

from __future__ import annotations

import math


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds.

    Python builds ``message`` before the call, whether or not the check
    fails: an f-string argument formats its fields (a dataclass ``!r``, a
    float) on every call.  Hot paths therefore write
    ``if not condition: raise ValueError(f"...")`` so the message is only
    built on failure; ``require`` suits constant messages and code that
    runs once per request.
    """
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str, owner: str | None = None) -> None:
    """Validate that ``value`` is a finite number strictly greater than zero.

    The message names ``owner.name`` when ``owner`` is given; that label
    is formatted only when the check fails.
    """
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        label = name if owner is None else f"{owner}.{name}"
        raise ValueError(f"{label} must be a finite positive number, got {value!r}")


def require_non_negative(value: float, name: str) -> None:
    """Validate that ``value`` is a finite number greater than or equal to zero."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
