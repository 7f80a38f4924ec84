"""The batched evaluation kernel must be bit-identical to the scalar path."""

import random

import pytest

from repro.piecewise import (
    PiecewiseFunction,
    Segment,
    evaluate_many,
    evaluate_sorted,
    from_points,
    segment_index,
    step,
)


def _random_continuous(rng: random.Random) -> PiecewiseFunction:
    xs = sorted({round(rng.uniform(0.0, 100.0), 4) for _ in range(rng.randint(2, 40))})
    while len(xs) < 2:
        xs.append(xs[-1] + 1.0)
    ys = [rng.uniform(-5.0, 15.0) for _ in xs]
    return from_points(xs, ys)


def _random_step(rng: random.Random) -> PiecewiseFunction:
    n = rng.randint(1, 30)
    bounds = [0.0]
    for _ in range(n):
        bounds.append(bounds[-1] + rng.uniform(0.1, 5.0))
    values = [rng.uniform(0.0, 10.0) for _ in range(n)]
    return step(bounds, values)


def _queries(rng: random.Random, f: PiecewiseFunction, count: int) -> list[float]:
    lo, hi = f.domain
    qs = [rng.uniform(lo, hi) for _ in range(count)]
    qs.extend(f.breakpoints())  # hit every jump/knot exactly
    qs.extend([lo, hi])
    rng.shuffle(qs)
    return qs


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_continuous_functions(self, seed):
        rng = random.Random(seed)
        f = _random_continuous(rng)
        qs = _queries(rng, f, 200)
        assert evaluate_many(f, qs) == [f.value(x) for x in qs]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_step_functions(self, seed):
        rng = random.Random(1000 + seed)
        f = _random_step(rng)
        qs = _queries(rng, f, 200)
        assert evaluate_many(f, qs) == [f.value(x) for x in qs]

    def test_jump_takes_max_of_one_sided_limits(self):
        f = step([0.0, 1.0, 2.0], [1.0, 9.0])
        assert evaluate_many(f, [1.0]) == [f.value(1.0)] == [9.0]

    def test_sorted_path_matches_general_path(self):
        rng = random.Random(77)
        f = _random_continuous(rng)
        lo, hi = f.domain
        qs = sorted(rng.uniform(lo, hi) for _ in range(300))
        assert evaluate_sorted(f, qs) == evaluate_many(f, qs)

    def test_sample_method_uses_batched_kernel(self):
        f = from_points([0.0, 1.0, 2.0], [0.0, 5.0, 1.0])
        qs = [1.7, 0.2, 2.0]
        assert f.sample(qs) == [f.value(x) for x in qs]


class TestValidation:
    def test_out_of_domain_rejected(self):
        f = from_points([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            evaluate_many(f, [0.5, 1.5])
        with pytest.raises(ValueError):
            evaluate_sorted(f, [-0.1])

    def test_nan_rejected_like_scalar_path(self):
        f = from_points([0.0, 1.0], [0.0, 1.0])
        nan = float("nan")
        with pytest.raises(ValueError):
            f.value(nan)
        with pytest.raises(ValueError):
            evaluate_many(f, [nan])
        with pytest.raises(ValueError):
            evaluate_sorted(f, [nan])

    def test_sorted_path_rejects_decreasing_queries(self):
        f = from_points([0.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            evaluate_sorted(f, [1.5, 0.5])

    def test_empty_query_list(self):
        f = from_points([0.0, 1.0], [0.0, 1.0])
        assert evaluate_many(f, []) == []
        assert evaluate_sorted(f, []) == []


class TestSegmentIndex:
    def test_index_shares_the_functions_tuples(self):
        f = from_points([0.0, 1.0, 3.0], [0.0, 2.0, 1.0])
        index = segment_index(f)
        assert all(
            mine is theirs
            for mine, theirs in zip((index.x0, index.x1, index.y0, index.y1), f.coordinates)
        )
        assert index.starts is index.x0
        assert segment_index(f) == index

    def test_index_mirrors_segments(self):
        f = PiecewiseFunction(
            [Segment(0.0, 1.0, 2.0, 3.0), Segment(1.0, 4.0, 3.0, 0.0)]
        )
        index = segment_index(f)
        assert len(index) == 2
        assert index.starts == (0.0, 1.0)
        assert index.x1 == (1.0, 4.0)
        assert (index.lo, index.hi) == (0.0, 4.0)
