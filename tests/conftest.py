"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import strategies as st

from repro.core import PreemptionDelayFunction
from repro.piecewise import PiecewiseFunction, from_points, step


@pytest.fixture
def rng() -> random.Random:
    """A deterministically seeded RNG for reproducible randomized tests."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def thread_pool(monkeypatch):
    """Run the engine's pooled loop on threads instead of processes.

    A test fake for the cases a process pool cannot serve: closure
    workers, counters and events shared with the test, and memo
    behaviour under threads sharing one process.
    """
    import repro.engine.engine as engine_module

    monkeypatch.setattr(engine_module, "ProcessPoolExecutor", ThreadPoolExecutor)


@pytest.fixture
def scratch_registries(monkeypatch):
    """Let a test register families and workloads without leaking them."""
    import repro.api.workloads as workloads
    import repro.engine.registry as registry

    monkeypatch.setattr(registry, "_FAMILIES", dict(registry._FAMILIES))
    monkeypatch.setattr(workloads, "_WORKLOADS", dict(workloads._WORKLOADS))


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def finite_floats(min_value: float = -1e6, max_value: float = 1e6):
    """Finite floats in a tame range (keeps interval arithmetic exact-ish)."""
    return st.floats(
        min_value=min_value,
        max_value=max_value,
        allow_nan=False,
        allow_infinity=False,
    )


@st.composite
def strictly_increasing_grid(draw, min_points=2, max_points=12, start=0.0):
    """A strictly increasing grid of integer-valued abscissae from ``start``."""
    steps = draw(
        st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=min_points - 1,
            max_size=max_points - 1,
        )
    )
    grid = [float(start)]
    for s in steps:
        grid.append(grid[-1] + float(s))
    return grid


@st.composite
def continuous_pwl(draw) -> PiecewiseFunction:
    """A random continuous piecewise-linear function on integer breakpoints."""
    xs = draw(strictly_increasing_grid(min_points=2, max_points=10))
    ys = draw(
        st.lists(
            st.integers(min_value=0, max_value=40),
            min_size=len(xs),
            max_size=len(xs),
        )
    )
    return from_points(xs, [float(y) for y in ys])


@st.composite
def step_function(draw) -> PiecewiseFunction:
    """A random piecewise-constant function on integer breakpoints."""
    bounds = draw(strictly_increasing_grid(min_points=2, max_points=10))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=40),
            min_size=len(bounds) - 1,
            max_size=len(bounds) - 1,
        )
    )
    return step(bounds, [float(v) for v in values])


@st.composite
def delay_functions(draw) -> PreemptionDelayFunction:
    """A random non-negative preemption-delay function starting at 0."""
    if draw(st.booleans()):
        fn = draw(continuous_pwl())
    else:
        fn = draw(step_function())
    return PreemptionDelayFunction(fn)
