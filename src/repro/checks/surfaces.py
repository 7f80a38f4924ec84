"""The call surfaces the rules look for, each classified in one place.

A rule of :mod:`repro.checks` is a *surface classifier* plus a *scope*:
the sites of one scope (depth 0) or everything the call graph's
breadth-first search reaches from an entry set.  The classifiers read a
resolved :class:`~repro.checks.callgraph.CallSite` — its canonical
``external`` name (``from time import time`` still reads
``time.time``) or, for a call on an unresolvable object, its attribute
name — and say which surface it hits:

* :func:`entropy` — global ``random`` state or wall-clock/entropy reads
  (``DET001``, ``DET002``, ``DET006``);
* :func:`blocking` — calls that block the calling thread on I/O
  (``ASY001``, ``ASY002``, ``LK002``), and :func:`sync_wait`, the
  future/lock waits ``LK002`` adds on top;
* :func:`loop_or_thread` — asyncio loop or live-thread machinery
  (``FS001``).

The fourth surface, a global write, is a statement rather than a call:
the ``global``/``nonlocal`` facts of a scope (``WP003``, ``FS002``).
"""

from __future__ import annotations

from repro.checks.callgraph import CallSite

#: ``random``-module attributes that are fine to call (the seeded/class
#: entry points a deterministic caller uses).
_RANDOM_OK = frozenset({"Random", "SystemRandom", "getstate", "setstate"})

#: Exact dotted names of wall-clock/entropy reads.
_CLOCK_ENTROPY = frozenset(
    {
        "time.time",
        "time.time_ns",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
    }
)

#: Dotted-name *suffixes* of naive now/today constructors, matched on
#: the last two parts (``datetime.datetime.now``, ``datetime.date.today``).
_CLOCK_SUFFIXES = frozenset(
    {
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: Exact dotted names of known-blocking calls (builtins included).
_BLOCKING = frozenset(
    {
        "time.sleep",
        "sqlite3.connect",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "socket.create_connection",
        "urllib.request.urlopen",
        "open",
        "input",
    }
)

#: Attribute names of blocking ``pathlib.Path`` file operations.
_BLOCKING_ATTRS = frozenset(
    {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "mkdir",
        "unlink",
        "rmdir",
    }
)

#: Future-synchronisation calls that block the calling thread.
_FUTURE_WAITS = frozenset(
    {"concurrent.futures.wait", "concurrent.futures.as_completed"}
)

#: Attribute calls that block on synchronisation objects.
_SYNC_ATTRS = frozenset({"result", "wait", "acquire"})

#: ``threading`` entry points that reference *live* thread machinery.
_THREAD_STATE = frozenset(
    {
        "threading.Thread",
        "threading.current_thread",
        "threading.enumerate",
        "threading.active_count",
        "threading.main_thread",
        "threading.settrace",
        "threading.setprofile",
    }
)

#: Attribute calls that operate on an event loop object.
_LOOP_ATTRS = frozenset(
    {
        "run_until_complete",
        "run_in_executor",
        "call_soon_threadsafe",
        "create_task",
        "ensure_future",
    }
)


def entropy(site: CallSite) -> str | None:
    """``"random"`` for shared global randomness (``random.*``,
    ``numpy.random.*``), ``"clock"`` for a wall-clock/entropy read,
    else ``None``."""
    name = site.external
    if name is None:
        return None
    parts = name.split(".")
    if name in _CLOCK_ENTROPY or tuple(parts[-2:]) in _CLOCK_SUFFIXES:
        return "clock"
    if len(parts) >= 2 and parts[0] == "random" and parts[1] not in _RANDOM_OK:
        return "random"
    if len(parts) >= 3 and parts[1] == "random":
        return "random"
    return None


def blocking(site: CallSite) -> str | None:
    """The blocking I/O surface a site hits (its label), if any."""
    if site.external is not None and (
        site.external in _BLOCKING
        or site.external.split(".")[-1] in _BLOCKING_ATTRS
    ):
        return site.external
    if site.attr in _BLOCKING_ATTRS:
        return site.raw or f".{site.attr}"
    return None


def sync_wait(site: CallSite) -> tuple[str | None, str | None]:
    """A future or lock wait: ``(label, receiver)``, where ``receiver``
    is the dotted name the wait is called on (so a caller can exempt
    ``cond.wait()`` under its own lock); ``(None, None)`` otherwise."""
    if site.external in _FUTURE_WAITS:
        return site.external, None
    attr = site.attr or (site.raw.split(".")[-1] if site.raw else None)
    if site.target is not None or attr not in _SYNC_ATTRS:
        return None, None
    receiver = (
        site.raw.rsplit(".", 1)[0] if site.raw and "." in site.raw else None
    )
    return site.raw or f".{attr}", receiver


def loop_or_thread(site: CallSite) -> str | None:
    """The event-loop or live-thread surface a site touches, if any."""
    if site.external is not None and (
        site.external.split(".")[0] == "asyncio"
        or site.external in _THREAD_STATE
    ):
        return site.external
    if site.attr in _LOOP_ATTRS:
        return site.raw or f".{site.attr}"
    return None
