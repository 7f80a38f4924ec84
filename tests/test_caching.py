"""The ThreadPinnedLRU memo behind the engine's shared-context cache.

These tests lock in the lru-compatible memo behaviour, the per-thread
pin, and the wiring — the engine's context memo is a
:class:`ThreadPinnedLRU`.
"""

from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest

from repro.utils.caching import ThreadPinnedLRU


class TestThreadPinnedLRU:
    def _counting_memo(self, size=1):
        calls = []

        def fn(x):
            """doc survives wrapping"""
            calls.append(x)
            return x * 2

        return ThreadPinnedLRU(fn, size), calls

    def test_memoises_like_lru_cache(self):
        memo, calls = self._counting_memo(size=4)
        assert memo(3) == 6
        memo(4)  # moves the pin off 3, so the next call hits the LRU
        assert memo(3) == 6
        assert calls == [3, 4]
        info = memo.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_cache_clear_drops_entries_keeps_capacity(self):
        memo, calls = self._counting_memo(size=4)
        memo(1)
        memo.cache_clear()
        memo(1)
        assert calls == [1, 1]
        assert memo.cache_info().maxsize == 4

    def test_eviction_respects_capacity(self):
        memo, calls = self._counting_memo(size=2)
        memo(1), memo(2), memo(3)  # evicts 1
        memo(1)
        assert calls == [1, 2, 3, 1]

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError, match=">= 1"):
            ThreadPinnedLRU(lambda x: x, 0)

    def test_wraps_like_functools(self):
        memo, _ = self._counting_memo()
        assert memo.__name__ == "fn"
        assert memo.__doc__ == "doc survives wrapping"
        assert memo.__wrapped__(5) == 10

    def test_pin_survives_eviction_by_another_thread(self):
        memo, calls = self._counting_memo(size=1)
        assert memo(1) == 2
        with ThreadPoolExecutor(max_workers=1) as other:
            assert other.submit(memo, 2).result() == 4  # evicts 1
        assert memo(1) == 2
        assert calls == [1, 2]
        # Without the pin the same sequence builds 1 twice.
        plain = lru_cache(maxsize=1)(memo.__wrapped__)
        plain(1)
        with ThreadPoolExecutor(max_workers=1) as other:
            other.submit(plain, 2).result()
        plain(1)
        assert calls == [1, 2, 1, 2, 1]

    def test_the_pin_holds_one_key_per_thread(self):
        memo, calls = self._counting_memo(size=1)
        memo(1), memo(2), memo(1)
        assert calls == [1, 2, 1]

    def test_cache_clear_drops_every_threads_pin(self):
        memo, calls = self._counting_memo(size=4)
        with ThreadPoolExecutor(max_workers=1) as other:
            other.submit(memo, 3).result()
            memo(1)
            memo.cache_clear()
            memo(1)
            other.submit(memo, 3).result()
        assert calls == [3, 1, 1, 3]

    def test_context_memo_is_pinned(self):
        from repro.engine.context import CONTEXT_CACHE_SIZE, get_context

        assert isinstance(get_context, ThreadPinnedLRU)
        assert get_context.cache_info().maxsize == CONTEXT_CACHE_SIZE
