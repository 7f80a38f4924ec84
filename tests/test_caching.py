"""The shared ``REPRO_CACHE_SIZE`` knob and the SwappableLRU memo.

One environment variable sizes the per-process AnalysisContext memo;
these tests lock in the parsing rules, the lru-compatible memo
behaviour, and the wiring — the engine memo is a :class:`SwappableLRU`
that picks the override up on ``resize()``.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.utils.caching import (
    CACHE_SIZE_ENV,
    SwappableLRU,
    ThreadPinnedLRU,
    cache_size,
)


class TestCacheSize:
    def test_unset_or_empty_yields_the_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_SIZE_ENV, raising=False)
        assert cache_size(32) == 32
        monkeypatch.setenv(CACHE_SIZE_ENV, "")
        assert cache_size(32) == 32

    def test_env_overrides_every_default(self, monkeypatch):
        monkeypatch.setenv(CACHE_SIZE_ENV, "7")
        assert cache_size(32) == 7
        assert cache_size(256) == 7

    @pytest.mark.parametrize("raw", ["zero", "1.5"])
    def test_non_integers_fail_loudly(self, monkeypatch, raw):
        monkeypatch.setenv(CACHE_SIZE_ENV, raw)
        with pytest.raises(ValueError, match=CACHE_SIZE_ENV):
            cache_size(4)

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_non_positive_sizes_fail_loudly(self, monkeypatch, raw):
        monkeypatch.setenv(CACHE_SIZE_ENV, raw)
        with pytest.raises(ValueError, match=">= 1"):
            cache_size(4)


class TestSwappableLRU:
    def _counting_memo(self, size=4):
        calls = []

        def fn(x):
            """doc survives wrapping"""
            calls.append(x)
            return x * 2

        return SwappableLRU(fn, size), calls

    def test_memoises_like_lru_cache(self):
        memo, calls = self._counting_memo()
        assert memo(3) == 6
        assert memo(3) == 6
        assert calls == [3]
        info = memo.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_cache_clear_drops_entries_keeps_capacity(self):
        memo, calls = self._counting_memo()
        memo(1)
        memo.cache_clear()
        memo(1)
        assert calls == [1, 1]
        assert memo.cache_info().maxsize == 4

    def test_resize_changes_capacity_and_drops_entries(self):
        memo, calls = self._counting_memo()
        memo(1)
        memo.resize(2)
        assert memo.cache_info().maxsize == 2
        memo(1)
        assert calls == [1, 1]

    def test_resize_none_rereads_the_environment(self, monkeypatch):
        memo, _ = self._counting_memo(size=4)
        monkeypatch.setenv(CACHE_SIZE_ENV, "9")
        memo.resize()
        assert memo.cache_info().maxsize == 9
        monkeypatch.delenv(CACHE_SIZE_ENV)
        memo.resize()
        assert memo.cache_info().maxsize == 4

    def test_eviction_respects_capacity(self):
        memo, calls = self._counting_memo(size=2)
        memo(1), memo(2), memo(3)  # evicts 1
        memo(1)
        assert calls == [1, 2, 3, 1]

    def test_rejects_degenerate_sizes(self):
        memo, _ = self._counting_memo()
        with pytest.raises(ValueError):
            SwappableLRU(lambda x: x, 0)
        with pytest.raises(ValueError):
            memo.resize(0)

    def test_wraps_like_functools(self):
        memo, _ = self._counting_memo()
        assert memo.__name__ == "fn"
        assert memo.__doc__ == "doc survives wrapping"
        assert memo.__wrapped__(5) == 10


class TestThreadPinnedLRU:
    def _counting_memo(self, size=1):
        calls = []

        def fn(x):
            calls.append(x)
            return x * 2

        return ThreadPinnedLRU(fn, size), calls

    def test_pin_survives_eviction_by_another_thread(self):
        memo, calls = self._counting_memo(size=1)
        assert memo(1) == 2
        with ThreadPoolExecutor(max_workers=1) as other:
            assert other.submit(memo, 2).result() == 4  # evicts 1
        assert memo(1) == 2
        assert calls == [1, 2]
        # Without the pin the same sequence builds 1 twice.
        plain = SwappableLRU(memo.__wrapped__, 1)
        plain(1)
        with ThreadPoolExecutor(max_workers=1) as other:
            other.submit(plain, 2).result()
        plain(1)
        assert calls == [1, 2, 1, 2, 1]

    def test_the_pin_holds_one_key_per_thread(self):
        memo, calls = self._counting_memo(size=1)
        memo(1), memo(2), memo(1)
        assert calls == [1, 2, 1]

    @pytest.mark.parametrize("drop", ["cache_clear", "resize"])
    def test_clear_and_resize_drop_every_threads_pin(self, drop):
        memo, calls = self._counting_memo(size=4)
        with ThreadPoolExecutor(max_workers=1) as other:
            other.submit(memo, 3).result()
            memo(1)
            getattr(memo, drop)()
            memo(1)
            other.submit(memo, 3).result()
        assert calls == [3, 1, 1, 3]

    def test_context_memo_is_pinned(self):
        from repro.engine.context import get_context

        assert isinstance(get_context, ThreadPinnedLRU)


class TestEngineMemoWiring:
    def test_every_engine_memo_follows_the_knob(self, monkeypatch):
        # The one-knob contract: the AnalysisContext memo resizes
        # through REPRO_CACHE_SIZE.
        from repro.engine.context import get_context

        memos = (get_context,)
        for memo in memos:
            assert isinstance(memo, SwappableLRU)
        monkeypatch.setenv(CACHE_SIZE_ENV, "11")
        try:
            for memo in memos:
                memo.resize()
                assert memo.cache_info().maxsize == 11
        finally:
            monkeypatch.delenv(CACHE_SIZE_ENV)
            for memo in memos:
                memo.resize()
        assert get_context.cache_info().maxsize != 11
