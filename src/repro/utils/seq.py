"""Sequence and arithmetic helpers."""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from typing import TypeVar

T = TypeVar("T")


def pairwise(items: Iterable[T]) -> Iterator[tuple[T, T]]:
    """Yield consecutive pairs ``(items[k], items[k + 1])``."""
    iterator = iter(items)
    try:
        previous = next(iterator)
    except StopIteration:
        return
    for current in iterator:
        yield previous, current
        previous = current


def is_strictly_increasing(values: Sequence[float]) -> bool:
    """Return ``True`` when every element is strictly larger than the previous."""
    return all(map(operator.lt, values, values[1:]))


def lcm_many(values: Iterable[int]) -> int:
    """Least common multiple of an iterable of positive integers."""
    result = 1
    for value in values:
        if value <= 0:
            raise ValueError(f"lcm is only defined for positive integers, got {value}")
        result = math.lcm(result, value)
    return result
