"""Host-speed normalisation of the timed metrics.

On a shared virtual machine the same pure-Python code runs up to twice
as slow for stretches of a second to minutes, with no steal time and
no preemption: the CPU itself is slower while a neighbour loads it.  Wall
time and CPU time move together, so neither can be read as the
program's cost alone.

Between the timed intervals of a run the benchmark times a fixed
reference work written here, independent of ``repro``: interpreter
loops over floats, ``bisect`` lookups on sorted lists, small-object
allocation, dict counting, a sort and a ``json`` encode, the operations
the program's hot paths are made of.  A time measured between two
samples is scaled by ``NOMINAL_S`` over their mean, which turns it into
*reference seconds*: what it would have taken with the reference work
at its nominal speed.  A change to the program moves the scaled time as
much as the raw one, since the reference work never runs program code;
a slow stretch of the host slows both and cancels.
"""

from __future__ import annotations

import bisect
import json
import time
from collections.abc import Callable
from typing import Any

#: The reference work's time on a 2-vCPU Intel Xeon VM (Python 3.11)
#: outside its slow stretches.  Scaled times are in these seconds.
NOMINAL_S = 0.011

#: Passes per sample; the sample is the fastest, which drops passes an
#: interrupt or a page fault happened to hit.
PASSES = 3


class _Point:
    __slots__ = ("t", "v")

    def __init__(self, t: float, v: float) -> None:
        self.t = t
        self.v = v


def _loop_work() -> float:
    xs = [float(i % 97) + 0.5 for i in range(256)]
    slots: dict[int, float] = {}
    acc = 0.0
    for i in range(20_000):
        x = xs[i & 255]
        acc = acc * 0.5 + x * 1.0001
        j = bisect.bisect_left(xs, x, 0, 64)
        slots[i & 63] = acc + j
    return acc


def _piecewise_work() -> float:
    xs = [i * 0.37 for i in range(512)]
    ys = [((i * 7919) % 101) * 0.1 for i in range(512)]
    total = 0.0
    t = 0.0
    counts: dict[int, int] = {}
    points = []
    while t < 180.0:
        k = bisect.bisect_right(xs, t) - 1
        slope = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
        v = ys[k] + slope * (t - xs[k])
        total = max(total * 0.999 + v, v)
        key = int(v * 10)
        counts[key] = counts.get(key, 0) + 1
        points.append(_Point(t, v))
        t += 0.05 + v * 0.001
    points.sort(key=lambda p: (p.v, p.t))
    json.dumps([(p.t, p.v) for p in points[:64]])
    return total


def reference_work() -> float:
    return _loop_work() + _piecewise_work()


def sample() -> float:
    """Time the reference work: the fastest of :data:`PASSES`."""
    passes = []
    for _ in range(PASSES):
        start = time.perf_counter()
        reference_work()
        passes.append(time.perf_counter() - start)
    return min(passes)


def scale(before: float, after: float) -> float:
    """Factor from seconds measured between two samples to reference
    seconds."""
    return 2.0 * NOMINAL_S / (before + after)


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """``fn()`` and its time in reference seconds."""
    before = sample()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed * scale(before, sample())
