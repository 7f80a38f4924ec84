"""Lock-discipline checkers (``LK``): deadlock and stall patterns.

``repro.serve`` mixes an asyncio event loop, an executor thread pool
and two mutable tables guarded by ``threading`` primitives
(``_slot_lock``, ``_claims_cond``).  That combination has exactly
three classic failure shapes, and each gets a rule:

* ``LK001`` — *inconsistent acquisition order*: somewhere lock ``B``
  is taken while ``A`` is held, somewhere else ``A`` while ``B`` is
  held (lexically nested ``with`` blocks or through any call chain).
  Two threads running those paths concurrently deadlock; the fix is
  one documented order.
* ``LK002`` — *blocking while holding a lock*: file/socket/subprocess
  I/O, ``future.result()``, ``concurrent.futures.wait`` or foreign
  ``.wait()``/``.acquire()`` reachable while a ``threading`` lock is
  held.  Every other thread touching the lock stalls for the
  operation's duration.  ``Condition.wait()`` *on a held condition
  itself* is the one exemption — that is the primitive's contract (it
  releases the lock while waiting).
* ``LK003`` — *await under a sync lock*: an ``await`` expression
  lexically inside a ``with some_threading_lock:`` block of a
  coroutine.  The coroutine parks at the await point still holding
  the lock; any executor thread then contending for it blocks its
  worker, and the loop can deadlock against its own pool.

Lock objects are identified structurally: ``self.x =
threading.Lock()`` (``RLock``/``Condition``/``Semaphore`` included)
gives the class-scoped identity ``module:Class.x``; a module-level
``x = threading.Lock()`` gives ``module:x``.  ``with`` statements on
those names are acquisitions.  ``.join()`` is deliberately *not* in
the blocking set (``str.join`` would drown the signal); thread joins
under a lock surface through the futures rules instead.
"""

from __future__ import annotations

from repro.checks.callgraph import CallSite, Scope, format_path
from repro.checks.model import Hits, rule
from repro.checks.source import SourceTree
from repro.checks.surfaces import blocking, sync_wait


def _short(ident: str) -> str:
    """``module:Class.attr`` → ``Class.attr`` for messages."""
    return ident.split(":", 1)[1]


@rule("LK001", "concurrency", "inconsistent lock acquisition order between two "
      "sites (deadlock)")
def _lk001(tree: SourceTree) -> Hits:
    """Inconsistent lock acquisition order across the tree."""
    graph = tree.callgraph()
    closures: dict[str, set[str]] = {}

    def closure(node_id: str) -> set[str]:
        """Locks acquired by ``node_id`` or anything it reaches."""
        if node_id not in closures:
            closures[node_id] = {
                lock
                for path, _via in graph.reach(node_id)
                for lock in graph.scope(path[-1]).acquires
            }
        return closures[node_id]

    # Ordered pair occurrences: (held, taken) -> [(file, line)].
    occurrences: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for scope in graph.scopes():
        for held, taken, line in scope.pairs:
            occurrences.setdefault((held, taken), []).append((scope.file, line))
        for site in scope.sites:
            if not site.held or site.target is None:
                continue
            for taken in closure(site.target):
                for holder in site.held:
                    if holder != taken:
                        occurrences.setdefault((holder, taken), []).append(
                            (scope.file, site.line)
                        )
    for (held, taken), spots in sorted(occurrences.items()):
        reverse = occurrences.get((taken, held))
        if not reverse:
            continue
        counter_file, counter_line = sorted(reverse)[0]
        for file, line in sorted(set(spots)):
            yield file, line, (
                f"lock {_short(taken)} is acquired while "
                f"{_short(held)} is held, but the opposite order "
                f"occurs at {counter_file}:{counter_line}; two "
                "threads running both paths deadlock — pick one "
                "acquisition order"
            )


def _blocks(
    site: CallSite, scope: Scope, locks: set[str]
) -> tuple[str | None, str | None]:
    """Classify one site of ``scope`` for LK002: ``(label, lock)``, where
    ``lock`` is the known lock a ``.wait()``/``.acquire()`` is called
    on (exempt while that lock itself is held)."""
    label = blocking(site)
    if label is not None:
        return label, None
    label, receiver = sync_wait(site)
    ident = scope.lock_identity(receiver)
    return label, ident if ident in locks else None


@rule("LK002", "concurrency", "blocking I/O or future-wait reachable while a "
      "threading lock is held")
def _lk002(tree: SourceTree) -> Hits:
    """Blocking operations reachable while a lock is held."""
    graph = tree.callgraph()
    reached: dict[str, list[tuple[tuple[str, ...], str, str | None]]] = {}

    def hits(node_id: str) -> list[tuple[tuple[str, ...], str, str | None]]:
        """Blocking sites ``node_id`` reaches: ``(path, label, lock)``."""
        if node_id not in reached:
            reached[node_id] = [
                (path, label, lock)
                for path, _via, site in graph.walk_sites(node_id)
                for label, lock in [_blocks(site, graph.scope(path[-1]), graph.locks)]
                if label is not None
            ]
        return reached[node_id]

    for scope in graph.scopes():
        seen: set[tuple[int, str]] = set()
        for site in scope.sites:
            if not site.held:
                continue
            label, lock = _blocks(site, scope, graph.locks)
            path = (scope.node_id,)
            if label is None and site.target is not None:
                for hit_path, hit_label, hit_lock in hits(site.target):
                    if hit_lock is None or hit_lock not in site.held:
                        label, lock = hit_label, hit_lock
                        path = (scope.node_id, *hit_path)
                        break
            if label is None or (lock is not None and lock in site.held):
                continue  # nothing blocks, or cond.wait() under its own lock
            if (site.line, label) in seen:
                continue
            seen.add((site.line, label))
            yield scope.file, site.line, (
                f"blocking {label}() reachable while "
                f"{', '.join(_short(h) for h in site.held)} is held "
                f"({format_path(graph, path, label)}); every "
                "thread contending for the lock stalls for its "
                "duration — release the lock first"
            )


@rule("LK003", "concurrency", "await under a held synchronous lock inside a "
      "coroutine")
def _lk003(tree: SourceTree) -> Hits:
    """``await`` parked under a held synchronous lock."""
    for scope in tree.callgraph().scopes():
        for held, line in scope.held_awaits if scope.is_async else ():
            yield scope.file, line, (
                f"await while holding sync lock "
                f"{', '.join(_short(h) for h in held)}: the "
                "coroutine parks holding it and executor "
                "threads contending for the lock stall the "
                "pool — do the awaiting outside the with block"
            )
