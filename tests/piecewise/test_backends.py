"""Kernel-backend registry semantics and point-kernel parity.

Two surfaces are locked in here:

1. **Registry semantics** — the three built-in entries, registration
   order, loud failure for unknown and unavailable names, duplicate
   protection, and the declared (environment-independent) capability
   flags the docs table is generated from.
2. **Point-evaluation parity** — the ``numpy`` backend's
   ``evaluate_points`` is bit-identical to the scalar reference over
   randomized functions (breakpoints and endpoints included) and
   raises the same domain errors.

The struct-of-arrays *batch* kernel parity (whole grouped chunks) is
covered at the engine layer in ``tests/engine/test_backend_batch.py``.
"""

import random

import pytest

from repro.piecewise import (
    DEFAULT_BACKEND,
    EXACT_BIT_IDENTICAL,
    KernelBackend,
    available_backends,
    backend_names,
    batched_grid_for,
    clear_batched_grid_cache,
    from_points,
    get_backend,
    register_backend,
    resolve_backend,
    segment_index,
    step,
)
from repro.piecewise import backends as backends_module


def _random_continuous(rng: random.Random):
    xs = sorted(
        {round(rng.uniform(0.0, 100.0), 4) for _ in range(rng.randint(2, 40))}
    )
    while len(xs) < 2:
        xs.append(xs[-1] + 1.0)
    ys = [rng.uniform(-5.0, 15.0) for _ in xs]
    return from_points(xs, ys)


def _random_step(rng: random.Random):
    n = rng.randint(1, 30)
    bounds = [0.0]
    for _ in range(n):
        bounds.append(bounds[-1] + rng.uniform(0.1, 5.0))
    values = [rng.uniform(0.0, 10.0) for _ in range(n)]
    return step(bounds, values)


def _queries(rng: random.Random, f, count: int) -> list[float]:
    lo, hi = f.domain
    qs = [rng.uniform(lo, hi) for _ in range(count)]
    qs.extend(f.breakpoints())
    qs.extend([lo, hi])
    rng.shuffle(qs)
    return qs


def _fake_backend(**overrides) -> KernelBackend:
    fields = dict(
        name="fake-for-test",
        description="registered by a test; never left behind",
        exactness=EXACT_BIT_IDENTICAL,
        requires="no_such_module",
        available=False,
        batch_capable=False,
        evaluate_many=None,
        bound_batch=None,
    )
    fields.update(overrides)
    return KernelBackend(**fields)


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert backend_names() == ("scalar", "vectorized", "numpy")

    def test_stdlib_backends_always_available(self):
        for name in ("scalar", "vectorized"):
            backend = get_backend(name)
            assert backend.available
            assert backend.requires is None
            assert name in available_backends()

    def test_default_backend_is_always_available(self):
        assert DEFAULT_BACKEND in available_backends()

    def test_every_builtin_declares_bit_identical(self):
        for name in backend_names():
            assert get_backend(name).exactness == EXACT_BIT_IDENTICAL

    def test_array_backends_declare_batch_capability(self):
        # Declared capability is environment-independent: true for the
        # array backends even on a machine where they can't run.
        for name, capable in (
            ("scalar", False),
            ("vectorized", False),
            ("numpy", True),
        ):
            assert get_backend(name).batch_capable is capable

    def test_unknown_backend_fails_listing_the_registry(self):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            get_backend("bogus")
        with pytest.raises(ValueError, match="scalar, vectorized"):
            resolve_backend("bogus")

    def test_duplicate_registration_rejected_without_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(_fake_backend(name="scalar"))

    def test_replace_overwrites_and_restores(self):
        original = get_backend("scalar")
        try:
            register_backend(_fake_backend(name="scalar"), replace=True)
            assert not get_backend("scalar").available
        finally:
            register_backend(original, replace=True)
        assert get_backend("scalar") is original

    def test_unavailable_backend_resolve_names_the_module(self):
        register_backend(_fake_backend())
        try:
            assert "fake-for-test" in backend_names()
            assert "fake-for-test" not in available_backends()
            with pytest.raises(
                ValueError, match="requires the 'no_such_module' module"
            ):
                resolve_backend("fake-for-test")
        finally:
            backends_module._BACKENDS.pop("fake-for-test")

    def test_unavailable_backend_refuses_point_evaluation(self):
        backend = _fake_backend()
        f = from_points([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="not available"):
            backend.evaluate_points(f, [0.5])

    def test_supports_batch_tracks_the_kernel(self):
        assert not get_backend("scalar").supports_batch
        assert not get_backend("vectorized").supports_batch
        if "numpy" in available_backends():
            assert get_backend("numpy").supports_batch


class TestPointParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_numpy_points_bit_identical_to_scalar(self, seed):
        pytest.importorskip("numpy")
        rng = random.Random(seed)
        f = _random_continuous(rng) if seed % 2 else _random_step(rng)
        qs = _queries(rng, f, 150)
        backend = resolve_backend("numpy")
        assert backend.evaluate_points(f, qs) == [f.value(x) for x in qs]

    def test_numpy_rejects_out_of_domain_like_scalar(self):
        pytest.importorskip("numpy")
        f = from_points([0.0, 10.0], [0.0, 5.0])
        backend = resolve_backend("numpy")
        with pytest.raises(ValueError, match="outside domain"):
            backend.evaluate_points(f, [5.0, 11.0])
        with pytest.raises(ValueError):
            f.value(11.0)


class TestBatchedGrid:
    def test_grid_is_cached_per_segment_index(self):
        pytest.importorskip("numpy")
        clear_batched_grid_cache()
        f = from_points([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])
        first = batched_grid_for(f)
        assert batched_grid_for(f) is first
        clear_batched_grid_cache()
        assert batched_grid_for(f) is not first

    def test_grid_matches_the_segment_index(self):
        pytest.importorskip("numpy")
        rng = random.Random(7)
        f = _random_continuous(rng)
        grid = batched_grid_for(f)
        index = segment_index(f)
        assert len(grid) == len(index.starts)
        lo, hi = f.domain
        assert grid.lo == lo
        assert grid.hi == hi
