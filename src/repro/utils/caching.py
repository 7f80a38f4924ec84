"""Shared sizing knob for the per-process memo caches.

The engine keeps one per-process LRU memo: the shared-artifact
``AnalysisContext`` objects of :func:`repro.engine.context.get_context`.
This module provides the surface that sizes it:

* ``REPRO_CACHE_SIZE`` — environment variable overriding the memo's
  default capacity (one positive integer);
* :class:`SwappableLRU` — an ``functools.lru_cache`` wrapper whose
  capacity can be rebuilt at runtime (``resize()``), used instead of
  the bare decorator so the environment override and programmatic
  resizing share one code path;
* :class:`ThreadPinnedLRU` — a :class:`SwappableLRU` that also keeps
  each thread's last result, for memos that thread workers call once
  per scenario.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from functools import lru_cache

from repro.utils.checks import require

#: Environment variable naming the shared memo-cache capacity.
CACHE_SIZE_ENV = "REPRO_CACHE_SIZE"


def cache_size(default: int) -> int:
    """Effective capacity for a memo cache with the given default.

    Reads ``REPRO_CACHE_SIZE`` at call time; an unset or empty variable
    yields ``default``.  A set value must be a positive integer and
    applies uniformly to every cache that consults this helper.

    Raises:
        ValueError: if the variable is set to a non-integer or a value
            below 1.
    """
    raw = os.environ.get(CACHE_SIZE_ENV)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{CACHE_SIZE_ENV} must be a positive integer, got {raw!r}"
        ) from None
    require(value >= 1, f"{CACHE_SIZE_ENV} must be >= 1, got {value}")
    return value


class SwappableLRU:
    """An LRU memo whose capacity can be rebuilt at runtime.

    Behaves like ``functools.lru_cache(maxsize=...)(fn)`` — including
    ``cache_clear()`` and ``cache_info()`` — but the capacity is
    resolved through :func:`cache_size` (so ``REPRO_CACHE_SIZE``
    applies) and can be changed later with :meth:`resize`, which the
    bare decorator cannot do.  Resizing drops all memoised entries.

    Args:
        fn: The function to memoise (arguments must be hashable).
        default_size: Capacity used when ``REPRO_CACHE_SIZE`` is unset.
    """

    def __init__(self, fn: Callable, default_size: int):
        require(default_size >= 1, "default_size must be >= 1")
        self._fn = fn
        self._default_size = default_size
        self._cached = lru_cache(maxsize=cache_size(default_size))(fn)
        self.__doc__ = fn.__doc__
        self.__name__ = getattr(fn, "__name__", "SwappableLRU")
        self.__wrapped__ = fn

    def __call__(self, *args):
        return self._cached(*args)

    def resize(self, size: int | None = None) -> None:
        """Rebuild the memo with a new capacity (entries are dropped).

        Args:
            size: New capacity; ``None`` re-resolves the default through
                :func:`cache_size` (picking up ``REPRO_CACHE_SIZE``).
        """
        if size is None:
            size = cache_size(self._default_size)
        require(size >= 1, f"cache size must be >= 1, got {size}")
        self._cached = lru_cache(maxsize=size)(self._fn)

    def cache_clear(self) -> None:
        """Drop all memoised entries (capacity is unchanged)."""
        self._cached.cache_clear()

    def cache_info(self):
        """The underlying ``functools`` cache statistics."""
        return self._cached.cache_info()


class ThreadPinnedLRU(SwappableLRU):
    """A :class:`SwappableLRU` that also keeps each thread's last result.

    Engine workers call their memo once per scenario, and a
    group-respecting chunk asks for the same key over and over.  With
    thread workers the shared LRU alone does not guarantee one build per
    chunk: while one thread is between two scenarios of its chunk, the
    others can insert enough new keys to evict its entry, and its next
    scenario builds it again.  A per-thread pin of the last
    ``(args, result)`` answers those calls whatever the other threads
    evict.  :meth:`cache_clear` and :meth:`resize` invalidate every
    pin.  Pin hits bypass the LRU and do not show in ``cache_info()``.
    """

    def __init__(self, fn: Callable, default_size: int):
        super().__init__(fn, default_size)
        self._local = threading.local()
        self._generation = 0

    def __call__(self, *args):
        pin = getattr(self._local, "pin", None)
        if pin is not None and pin[0] == self._generation and pin[1] == args:
            return pin[2]
        result = super().__call__(*args)
        self._local.pin = (self._generation, args, result)
        return result

    def resize(self, size: int | None = None) -> None:
        super().resize(size)
        self._unpin()

    def cache_clear(self) -> None:
        super().cache_clear()
        self._unpin()

    def _unpin(self) -> None:
        # Other threads see the new generation on their next call; the
        # calling thread also lets go of its pinned result right away.
        self._generation += 1
        self._local.pin = None
