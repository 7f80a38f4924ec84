"""Algorithm 1 of the paper: cumulative preemption-delay bound under
floating non-preemptive region (FNPR) scheduling.

Under FNPR scheduling a running task executes at least ``Q_i`` wall-clock
time units between consecutive preemption *opportunities*.  Algorithm 1
walks the progression axis in windows: starting from progression ``prog``,
within the next ``Q_i`` wall-clock units the task pays at most
``delay_max = max f_i`` over ``[prog, p∩]`` and therefore progresses by at
least ``Q_i - delay_max``.  Here ``p∩`` is the first point where ``f_i``
meets the descending line ``D(x) = (prog + Q_i) - x``: a preemption beyond
``p∩`` would leave that point reachable in a later window, so it is
deferred to the next iteration (paper, Fig. 3 and Theorem 1).

Each window is one forward walk over ``f_i``'s coordinate tuples: one
bisect finds the first piece, every piece below the line adds to the
running maximum, and the first piece that meets the line fixes ``p∩``
and closes the maximum on ``[prog, p∩]``.  The arithmetic is that of
:meth:`~repro.piecewise.PiecewiseFunction.first_meeting_with_descending_line`
followed by :meth:`~repro.piecewise.PiecewiseFunction.max_on`, so the
result is the two-scan result bit for bit; a function whose pieces meet
only within the contiguity tolerance closes its maximum with ``max_on``
itself.  The walk records its trace as five float columns, and
:attr:`FloatingNPRBound.steps` builds :class:`WindowStep` objects only
when it is read.

A step function whose pieces meet exactly, and whose two ordinate
columns are one tuple (every builder of a step function stores them
so), takes the flat walk instead: the same windows, meeting test, root
formula and jump rule at ``p∩``, but each piece contributes only its
value at ``max(a, prog)`` (``y``, or ``y + 0.0`` where ``prog`` cuts it
strictly inside, as the interpolation returns it), a forward cursor
replaces the per-window bisects, and no tie rule is needed because each
candidate lies right of the last.  Its result is the walk's bit for
bit.  Every Figure 4 function and every ``study`` task's bell is such a
function.

A caller that evaluates many ``Q`` against one step function passes its
:func:`window_index`: the prefix maxima of each piece's reach ``y + x1``
and the ordinate tuple.  A window of the flat walk then bisects the
reach for the first piece that might meet the line, with a margin of
``2**-30 c`` so that every piece before it is below the line under the
walk's own test, and folds the whole pieces between the start piece and
that one with a C-level ``max`` and ``index`` (the first of equal
values, as the walk keeps).  Only the ``bound`` family's context
(:mod:`repro.engine.context`) builds an index, once per function and
shared by every ``Q`` of a sweep.  A call with no index (the study
path: each call there is on a fresh function and most charge two
windows, so a build would cost more than it saves) or with
``Q <= max f``, and a window too short to fold, walk every piece.

Extensions implemented beyond the paper's pseudo-code:

* a divergence guard — when ``delay_max >= Q_i`` the analysis cannot
  guarantee forward progress and the bound is reported as infinite
  (``converged=False``), exactly as Eq. 4 diverges when ``max f >= Q``;
* an optional cap on the number of preemptions (the paper's future-work
  item (ii)): when the release pattern of higher-priority tasks can only
  cause ``k`` preemptions, the bound becomes the sum of the ``k``
  *largest* window charges.  This is sound because (a) the analysis
  windows ``[prog_i, prog_{i+1})`` cover the whole progression axis from
  ``Q`` on, (b) consecutive run-time preemptions are at least
  ``Q - f(x_j)`` apart in progression while window ``i`` is exactly
  ``Q - delay_i <= Q - f(x)`` wide for any ``x`` it contains — so no two
  preemptions share a window — and (c) each window's charge dominates
  ``f`` everywhere inside it.  (Simply stopping after ``k`` windows would
  be UNSOUND: it charges the ``k`` earliest windows, while an adversary
  places its ``k`` preemptions at the worst ones.)
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import add

from repro.core.delay_function import PreemptionDelayFunction
from repro.piecewise.function import PiecewiseFunction, _value_on
from repro.utils.checks import require, require_positive

#: Default hard cap on iterations; Algorithm 1 performs at most
#: ``C / (Q - delay_max)`` iterations, so hitting this cap indicates either
#: a pathological input or near-divergence.
DEFAULT_MAX_ITERATIONS = 1_000_000

#: Minimum guaranteed progression per window before the analysis declares
#: divergence, as a fraction of Q.  Guards against float-precision stalls.
_MIN_PROGRESS_FRACTION = 1e-12

#: A window folds only pieces whose reach is below ``c * _BELOW``: a
#: margin of 2**-30 c, some 10**7 ulps of ``c``, so each folded piece
#: has both ends strictly below the line under the walk's own
#: ``y - (c - x) < 0`` test.
_BELOW = 1.0 - 2.0**-30

#: Fewer pieces than this are cheaper to walk than to fold.
_FOLD_MIN = 4


@dataclass(frozen=True, slots=True)
class WindowStep:
    """One iteration of Algorithm 1 (one analysis window).

    Attributes:
        index: 1-based iteration number.
        prog: Progression at the start of the window (paper's ``prog``).
        p_cross: The paper's ``p∩`` — end of the range in which the
            preemption is assumed to happen within this window.
        p_max: Leftmost argmax of ``f`` on ``[prog, p_cross]`` (the assumed
            preemption point).
        delay: ``f(p_max)`` — the delay charged in this window.
        p_next: Progression at the start of the next window
            (``prog + Q - delay``).
    """

    index: int
    prog: float
    p_cross: float
    p_max: float
    delay: float
    p_next: float


@dataclass(frozen=True, slots=True)
class FloatingNPRBound:
    """Result of Algorithm 1.

    Attributes:
        total_delay: Upper bound on the cumulative preemption delay
            (``math.inf`` when the analysis diverges).
        wcet: The task's ``C_i`` (domain of ``f_i``).
        q: The NPR length ``Q_i`` used.
        converged: ``False`` when ``delay_max >= Q`` stalled the analysis.
        preemptions: Number of windows in which a delay was charged.
        trace: The per-window trace as five index-aligned columns
            ``(prog, p_cross, p_max, delay, p_next)``; :attr:`steps`
            reads it as :class:`WindowStep` objects.
    """

    total_delay: float
    wcet: float
    q: float
    converged: bool
    preemptions: int
    trace: tuple[tuple[float, ...], ...] = field(repr=False)

    @property
    def steps(self) -> tuple[WindowStep, ...]:
        """Per-iteration trace (useful for plots and for regenerating the
        paper's Figure 3 walkthrough), built on every read."""
        return tuple(map(WindowStep, itertools.count(1), *self.trace))

    @property
    def inflated_wcet(self) -> float:
        """``C'_i = C_i + total_delay`` (paper, Eq. 5)."""
        return self.wcet + self.total_delay


@dataclass(frozen=True, slots=True)
class WindowIndex:
    """What Algorithm 1 reads to skip the pieces of a window that lie
    wholly below the line; see :func:`window_index`.

    Attributes:
        function: The indexed step function, checked by identity.
        peak: ``max f``; the index serves only ``Q > peak``.
        reach: Prefix maxima of each piece's ``y + x1``.
        peaks: Each piece's value: the function's ordinate tuple.
    """

    function: PiecewiseFunction
    peak: float
    reach: tuple[float, ...]
    peaks: tuple[float, ...]


def window_index(f: PreemptionDelayFunction) -> WindowIndex | None:
    """The :class:`WindowIndex` of ``f``, or ``None`` unless ``f`` is a
    step function (one ordinate tuple) whose every piece starts exactly
    where the previous one ends: only the flat walk folds pieces.

    Built once per function and shared by every ``Q`` evaluated
    against it; a single call is cheaper without one.
    """
    x0s, x1s, ys, y1s = f.function.coordinates
    if ys is not y1s or x1s[:-1] != x0s[1:]:
        return None
    # A flat piece reaches furthest at its right end.  A plain loop:
    # ``accumulate(ends, max)`` pays a builtin call per piece and takes
    # about four times as long.
    reach = []
    top = -math.inf
    for end in map(add, ys, x1s):
        if end > top:
            top = end
        reach.append(top)
    return WindowIndex(f.function, max(ys), tuple(reach), ys)


def floating_npr_delay_bound(
    f: PreemptionDelayFunction,
    q: float,
    max_preemptions: int | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    index: WindowIndex | None = None,
) -> FloatingNPRBound:
    """Run Algorithm 1 and return the cumulative preemption-delay bound.

    Args:
        f: The task's preemption-delay function ``f_i`` on ``[0, C_i]``.
        q: The floating non-preemptive region length ``Q_i`` (> 0).
        max_preemptions: Optional upper bound on the number of preemptions
            the release pattern permits (future-work extension): the
            result charges only the ``max_preemptions`` largest window
            delays.  ``None`` reproduces the paper's Algorithm 1 exactly.
        max_iterations: Hard safety cap on the number of windows.
        index: ``window_index(f)``, precomputed by a caller that
            evaluates many ``q`` against one ``f``; the result is the
            same bit for bit.

    Returns:
        A :class:`FloatingNPRBound` with the bound, a convergence flag and
        the full per-window trace.

    Raises:
        ValueError: on invalid ``q``/``max_preemptions``, an ``index``
            of another function, or if ``max_iterations`` is exhausted
            while still converging.
    """
    require_positive(q, "q")
    if max_preemptions is not None and not max_preemptions >= 0:
        raise ValueError(f"max_preemptions must be >= 0, got {max_preemptions}")

    x0s, x1s, y0s, y1s = f.function.coordinates
    if index is None:
        # With every piece starting exactly where the previous one ends,
        # the pieces before the meeting piece end at or before p∩ and at
        # most one piece starts at p∩, so a walk can close the maximum
        # itself.
        exact = x1s[:-1] == x0s[1:]
    else:
        require(index.function is f.function, "index was built for another function")
        exact = True  # window_index checked it
    if exact and y0s is y1s:
        converged, total_delay, columns = _flat_walk(f, q, max_iterations, index)
    else:
        converged, total_delay, columns = _walk(f, q, max_iterations, exact)

    delays = columns[3]
    preemptions = len(delays)
    if converged and max_preemptions is not None and max_preemptions < preemptions:
        # Release-pattern cap: the adversary gets to pick which windows
        # its (at most) k preemptions land in, so charge the k largest.
        total_delay = sum(sorted(delays, reverse=True)[:max_preemptions])
        preemptions = max_preemptions
    return FloatingNPRBound(
        total_delay=total_delay,
        wcet=f.wcet,
        q=q,
        converged=converged,
        preemptions=preemptions,
        trace=tuple(map(tuple, columns)),
    )


def _iteration_cap_error(max_iterations: int, wcet: float, q: float) -> ValueError:
    """What either walk raises when ``max_iterations`` runs out."""
    return ValueError(
        f"Algorithm 1 exceeded {max_iterations} iterations "
        f"(C={wcet}, Q={q}); the bound is close to divergence"
    )


def _walk(
    f: PreemptionDelayFunction, q: float, max_iterations: int, exact: bool
) -> tuple[bool, float, tuple[list[float], ...]]:
    """Algorithm 1's windows on any function: ``(converged, total,
    columns)``, the trace as one list per :class:`WindowStep` field after
    ``index``, and ``total`` infinite when the analysis diverges."""
    x0s, x1s, y0s, y1s = f.function.coordinates
    pieces = len(x0s)
    wcet = f.wcet
    floor = q - q * _MIN_PROGRESS_FRACTION
    columns: tuple[list[float], ...] = ([], [], [], [], [])
    progs, crosses, argmaxes, delays, nexts = columns
    total_delay = 0.0
    p_next = q  # no preemption can occur during the first Q units (line 4)

    iteration = 0
    while p_next < wcet:
        iteration += 1
        if iteration > max_iterations:
            raise _iteration_cap_error(max_iterations, wcet, q)
        prog = p_next
        c = prog + q
        hi = wcet if wcet < c else c  # min(c, wcet) without a call
        # One walk over the pieces meeting [prog, hi]: lines 7-10 find
        # p∩, the first point where f meets D(x) = c - x, and each piece
        # passed on the way adds to the maximum of f on [prog, p∩].
        first = bisect_right(x0s, prog) - 2
        if first < 0:
            first = 0
        last = bisect_right(x0s, hi) - 1
        if last < first:
            last = first
        best_v = -math.inf
        best_x = prog
        p_cross = None
        for k in range(first, last + 1):
            a, b, ya, yb = x0s[k], x1s[k], y0s[k], y1s[k]
            if prog < a and b < hi and ya - (c - a) < 0 and yb - (c - b) < 0:
                # Strictly inside the window and below the line.
                if yb > ya:
                    v, x = yb, b
                else:
                    v, x = ya, a
            else:
                s_lo = a if a > prog else prog
                s_hi = b if b < hi else hi
                if s_lo > s_hi:
                    continue
                v_lo = _value_on(a, b, ya, yb, s_lo)
                g_lo = v_lo - (c - s_lo)
                if g_lo >= 0:
                    p_cross = s_lo
                    break
                v_hi = _value_on(a, b, ya, yb, s_hi)
                g_hi = v_hi - (c - s_hi)
                if not (g_hi < 0 or g_hi == g_lo):
                    root = s_lo + (s_hi - s_lo) * (0.0 - g_lo) / (g_hi - g_lo)
                    p_cross = min(max(root, s_lo), s_hi)
                    break
                if v_hi > v_lo:
                    v, x = v_hi, s_hi
                else:
                    v, x = v_lo, s_lo
            if v > best_v or (v == best_v and x < best_x):
                best_v, best_x = v, x
        if p_cross is None:
            p_cross = hi
        elif exact:
            # The meeting piece on [s_lo, p∩], then the single point of
            # the next piece when p∩ falls on its start (a jump).
            v_hi = v_lo if p_cross == s_lo else _value_on(a, b, ya, yb, p_cross)
            if v_hi > v_lo:
                v, x = v_hi, p_cross
            else:
                v, x = v_lo, s_lo
            if v > best_v or (v == best_v and x < best_x):
                best_v, best_x = v, x
            k += 1
            if k < pieces and x0s[k] == p_cross and y0s[k] > best_v:
                best_v, best_x = y0s[k], x0s[k]
        else:
            best_v, best_x = f.max_on(prog, p_cross)
        if best_v >= floor:
            # No forward progress can be guaranteed: the bound diverges.
            return False, math.inf, columns
        p_next = c - best_v
        total_delay += best_v
        progs.append(prog)
        crosses.append(p_cross)
        argmaxes.append(best_x)
        delays.append(best_v)
        nexts.append(p_next)
    return True, total_delay, columns


def _flat_walk(
    f: PreemptionDelayFunction, q: float, max_iterations: int, index: WindowIndex | None
) -> tuple[bool, float, tuple[list[float], ...]]:
    """:func:`_walk` on a step function whose pieces meet exactly.

    A piece is its value ``y`` on ``[a, b]``, so it takes the value
    ``_value_on`` gives at ``max(a, prog)``: ``y`` itself, or ``y + 0.0``
    when ``prog`` cuts it strictly inside (the interpolation adds a zero
    slope term, which turns ``-0.0`` into ``0.0`` and an ``int`` into a
    ``float``).  The piece's other end has the same value, so it never
    raises the maximum, and each candidate lies right of the last, so
    the walk's leftmost-argmax tie rule never fires.  ``inside`` follows
    ``prog`` forward instead of a bisect per window.  With an index and
    ``Q > max f``, a window that spans at least six pieces folds its whole
    pieces below the line with one C-level ``max`` and ``index``, after
    reading the one or two pieces at ``prog`` directly: the reach shows
    that none of them meets the line either.
    """
    x0s, x1s, ys, _ = f.function.coordinates
    reach = None
    if index is not None and q > index.peak:
        # No piece left of prog can reach the line, so the prefix maxima
        # of the reach only grow from the window's own pieces.
        reach, peaks = index.reach, index.peaks
    pieces = len(x0s)
    wcet = f.wcet
    floor = q - q * _MIN_PROGRESS_FRACTION
    columns: tuple[list[float], ...] = ([], [], [], [], [])
    progs, crosses, argmaxes, delays, nexts = columns
    total_delay = 0.0
    p_next = q
    inside = 0  # bisect_right(x0s, prog): the first piece starting after prog

    iteration = 0
    while p_next < wcet:
        iteration += 1
        if iteration > max_iterations:
            raise _iteration_cap_error(max_iterations, wcet, q)
        prog = p_next
        c = prog + q
        hi = wcet if wcet < c else c
        if inside < pieces and x0s[inside] <= prog:
            inside = bisect_right(x0s, prog, inside)
        best_v = -math.inf
        best_x = prog
        start = inside - 2 if inside > 1 else 0
        fold = inside + _FOLD_MIN + 1  # the window must reach this piece
        if reach is not None and fold < pieces and x0s[fold] <= hi:
            # Pieces inside..below-1 start after prog and reach less than
            # the line: the walk would pass each of them below the line.
            below = bisect_left(reach, c * _BELOW, inside)
            if below - inside > _FOLD_MIN:
                # So do the one or two pieces at prog, which reach no
                # further: piece inside-1 holds prog, and piece inside-2
                # ends there when inside-1 starts there.
                k = inside - 1
                if x0s[k] < prog:
                    best_v = ys[k] + 0.0
                elif ys[k] > ys[k - 1]:
                    best_v = ys[k]
                else:
                    best_v = ys[k - 1]
                # The first of the largest values, at its piece's start.
                v = max(peaks[inside:below])
                if v > best_v:
                    best_v, best_x = v, x0s[peaks.index(v, inside, below)]
                start = below
        p_cross = None
        for k in range(start, pieces):
            a = x0s[k]
            if a > prog:
                if a > hi:
                    break
                s_lo = a
                v = ys[k]
            else:
                b = x1s[k]
                if b < prog:
                    continue
                s_lo = prog
                v = ys[k] if a == prog or b == prog else ys[k] + 0.0
            b = x1s[k]
            s_hi = b if b < hi else hi
            g_lo = v - (c - s_lo)
            if g_lo >= 0:
                p_cross = s_lo
                break
            g_hi = v - (c - s_hi)
            if not (g_hi < 0 or g_hi == g_lo):
                root = s_lo + (s_hi - s_lo) * (0.0 - g_lo) / (g_hi - g_lo)
                p_cross = min(max(root, s_lo), s_hi)
                break
            if v > best_v:
                best_v, best_x = v, s_lo
        if p_cross is None:
            p_cross = hi
        else:
            # The meeting piece, then the next piece's start when p∩
            # falls on it (a jump).
            if v > best_v:
                best_v, best_x = v, s_lo
            k += 1
            if k < pieces and x0s[k] == p_cross and ys[k] > best_v:
                best_v, best_x = ys[k], x0s[k]
        if best_v >= floor:
            return False, math.inf, columns
        p_next = c - best_v
        total_delay += best_v
        progs.append(prog)
        crosses.append(p_cross)
        argmaxes.append(best_x)
        delays.append(best_v)
        nexts.append(p_next)
    return True, total_delay, columns
