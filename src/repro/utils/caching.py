"""The per-process memo behind the engine's shared-artifact contexts.

:class:`ThreadPinnedLRU` is a fixed-capacity ``functools.lru_cache``
that also keeps each thread's last result.  The engine memoises its
task-set and benchmark contexts with it
(:func:`repro.engine.context.get_context`): the serve slot threads, each
evaluating its job inline, share that one memo.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from functools import lru_cache

from repro.utils.checks import require


class ThreadPinnedLRU:
    """An LRU memo that also keeps each thread's last result.

    Behaves like ``functools.lru_cache(maxsize=size)(fn)`` — including
    ``cache_clear()`` and ``cache_info()``.  Engine workers call their
    memo once per scenario, and a group-respecting run asks for the
    same key over and over.  With several threads on one memo — serve
    slots running their jobs side by side — the shared LRU alone does
    not guarantee one build per group: while one thread is between two
    scenarios of its group, the others can insert enough new keys to
    evict its entry, and its next scenario builds it again.  A
    per-thread pin of the last ``(args, result)`` answers those calls
    whatever the other threads evict.  :meth:`cache_clear` invalidates
    every pin.  Pin hits bypass the LRU and do not show in
    ``cache_info()``.

    Args:
        fn: The function to memoise (arguments must be hashable).
        size: LRU capacity (>= 1).
    """

    def __init__(self, fn: Callable, size: int):
        require(size >= 1, f"cache size must be >= 1, got {size}")
        self._cached = lru_cache(maxsize=size)(fn)
        self._local = threading.local()
        self._generation = 0
        self.__doc__ = fn.__doc__
        self.__name__ = getattr(fn, "__name__", "ThreadPinnedLRU")
        self.__wrapped__ = fn

    def __call__(self, *args):
        pin = getattr(self._local, "pin", None)
        if pin is not None and pin[0] == self._generation and pin[1] == args:
            return pin[2]
        result = self._cached(*args)
        self._local.pin = (self._generation, args, result)
        return result

    def cache_clear(self) -> None:
        """Drop all memoised entries and every thread's pin."""
        self._cached.cache_clear()
        # Other threads see the new generation on their next call; the
        # calling thread also lets go of its pinned result right away.
        self._generation += 1
        self._local.pin = None

    def cache_info(self):
        """The underlying ``functools`` cache statistics."""
        return self._cached.cache_info()
