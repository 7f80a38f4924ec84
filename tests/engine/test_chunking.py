"""Chunking and seed-derivation determinism."""

import pytest

from repro.engine.chunking import (
    default_chunk_size,
    derive_seed,
    grouped_chunk_plan,
)


def _single_key_plan(total: int, chunk_size: int) -> list[list[int]]:
    return grouped_chunk_plan([None] * total, chunk_size)


class TestChunkBounds:
    """With one key for every scenario (``run_batch`` without
    ``group_by``), the grouped plan is contiguous ``chunk_size``
    slices of the stream."""

    def test_empty_input_yields_no_chunks(self):
        assert _single_key_plan(0, 5) == []

    def test_chunk_larger_than_input(self):
        assert _single_key_plan(3, 10) == [[0, 1, 2]]

    def test_exact_multiple(self):
        assert _single_key_plan(6, 3) == [[0, 1, 2], [3, 4, 5]]

    def test_ragged_tail(self):
        assert _single_key_plan(7, 3) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_chunks_partition_the_range(self):
        for total in (1, 2, 5, 17, 100):
            for size in (1, 2, 3, 7, 200):
                chunks = _single_key_plan(total, size)
                assert [i for chunk in chunks for i in chunk] == list(
                    range(total)
                )
                assert all(
                    chunk == list(range(chunk[0], chunk[-1] + 1))
                    for chunk in chunks
                )
                assert all(len(chunk) == size for chunk in chunks[:-1])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            _single_key_plan(5, 0)


class TestDefaultChunkSize:
    def test_positive_even_for_empty(self):
        assert default_chunk_size(0, 4) == 1

    def test_targets_multiple_chunks_per_worker(self):
        size = default_chunk_size(1000, 4)
        assert 1 <= size <= 1000
        n_chunks = -(-1000 // size)
        assert n_chunks >= 4  # at least one chunk per worker

    def test_small_input_small_chunks(self):
        assert default_chunk_size(2, 8) == 1


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(2012, 5) == derive_seed(2012, 5)

    def test_distinct_across_indices(self):
        seeds = {derive_seed(2012, k) for k in range(10_000)}
        assert len(seeds) == 10_000

    def test_distinct_across_base_seeds(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_range(self):
        for k in range(100):
            s = derive_seed(123, k)
            assert 0 <= s < 2**63

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(0, -1)
