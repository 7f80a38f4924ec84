"""A certificate for each Algorithm 1 result, checked from its trace.

:func:`certify` checks the soundness argument of
:mod:`repro.core.floating_npr` on ``(f, Q, bound)`` directly, without
the kernel's code: the windows tile ``[Q, C)``, each is ``Q - delay``
wide, each charge dominates ``f`` on its window (an independent maximum
over ``f``'s knots) and the total is the sum of the charges, or of the
``k`` largest when capped.  It runs on the indexed path and the walk,
uncapped and capped, and over every ``(function, Q)`` of the default
Figure 5 grid; a step function also runs the general walk, on a copy
whose two ordinate columns are equal but distinct.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st
from tests.core.test_window_index import cases, flat_cases, kernel_paths

from repro.core import floating_npr_delay_bound
from repro.engine.context import build_context
from repro.engine.sweeps import bound_context_key, q_sweep_scenarios
from repro.experiments.fig5 import default_q_grid


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def f_max_on(f, lo: float, hi: float) -> float:
    """Supremum of ``f`` on ``[lo, hi]``: each piece meeting it, at the
    ends of its overlap (a piece is affine)."""
    x0s, x1s, y0s, y1s = f.function.coordinates
    best = -math.inf
    for k in range(bisect_left(x1s, lo), bisect_right(x0s, hi)):
        a, b, ya, yb = x0s[k], x1s[k], y0s[k], y1s[k]
        for x in (max(a, lo), min(b, hi)):
            best = max(best, ya + (yb - ya) * (x - a) / (b - a))
    return best


def certify(f, q: float, bound, cap: int | None = None) -> None:
    progs, _, _, delays, nexts = bound.trace
    wcet = f.wcet
    # The windows tile [Q, C): each starts where the last one ended.
    assert list(progs) == [q, *nexts][: len(progs)]
    assert all(prog < wcet for prog in progs)
    if not bound.converged:
        assert bound.total_delay == math.inf
        return
    assert (nexts[-1] if nexts else q) >= wcet
    for prog, delay, nxt in zip(progs, delays, nexts):
        assert close(nxt - prog, q - delay)  # Q - delay wide
        assert delay >= f_max_on(f, prog, min(nxt, wcet)) - 1e-9  # dominates f
    charged = sorted(delays, reverse=True)[:cap] if cap is not None else delays
    assert bound.preemptions == len(charged)
    assert close(bound.total_delay, math.fsum(charged))


@settings(deadline=None)
@given(st.one_of(cases(), flat_cases()))
def test_every_result_carries_its_certificate(case):
    f, q, cap, max_iterations = case
    for g, index in kernel_paths(f):
        try:
            bound = floating_npr_delay_bound(g, q, cap, max_iterations, index=index)
        except ValueError:
            continue  # the iteration cap, pinned to the walk in test_window_index
        certify(g, q, bound, cap)


def test_the_default_figure5_grid_is_certified():
    qs = default_q_grid()
    for scenario in q_sweep_scenarios(qs[:1]):
        context = build_context(bound_context_key(scenario))
        paths = kernel_paths(context.function, context.function_index)
        assert len(paths) == 3  # a step function: the general walk runs too
        for q in qs:
            for g, index in paths:
                for cap in (None, 5):
                    certify(g, q, floating_npr_delay_bound(g, q, cap, index=index), cap)
