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

A caller that evaluates many ``Q`` against one function passes its
:func:`window_index`: the prefix maxima of each piece's reach
``max(y0 + x0, y1 + x1)`` and each piece's ``max(y0, y1)``.  A window
then bisects the reach for the first piece that might meet the line,
with a margin of ``2**-30 c`` so that every piece before it is below the
line under the walk's own test, and folds the whole pieces between the
start piece and that one with a C-level ``max`` and ``index`` (the first
of equal peaks, as the walk keeps).  The start piece, the meeting piece
and the jump rule at ``p∩`` keep the walk's arithmetic, so the result is
the walk's bit for bit.  Only the ``bound`` family's context
(:mod:`repro.engine.context`) builds an index, once per function and
shared by every ``Q`` of a sweep.  The walk still runs every window of
a call with no index (the study path: each call there is on a fresh
function and charges few windows, so a build would cost more than it
saves), of a function whose pieces meet only within the tolerance (it
gets no index) and of a call with ``Q <= max f``; it also runs the
windows too short to fold.

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
        function: The indexed function, checked by identity.
        peak: ``max f``; the index serves only ``Q > peak``.
        reach: Prefix maxima of each piece's ``max(y0 + x0, y1 + x1)``.
        peaks: Each piece's ``max(y0, y1)``.
    """

    function: PiecewiseFunction
    peak: float
    reach: tuple[float, ...]
    peaks: tuple[float, ...]


def window_index(f: PreemptionDelayFunction) -> WindowIndex | None:
    """The :class:`WindowIndex` of ``f``, or ``None`` when some piece
    does not start exactly where the previous one ends (such functions
    always take the walk).

    Built once per function and shared by every ``Q`` evaluated
    against it; a single call is cheaper without one.
    """
    x0s, x1s, y0s, y1s = f.function.coordinates
    if x1s[:-1] != x0s[1:]:
        return None
    if y0s == y1s:
        # A flat piece reaches furthest at its right end.
        peaks = y0s
        ends = map(add, y1s, x1s)
    else:
        peaks = tuple(map(max, y0s, y1s))
        ends = map(max, map(add, y0s, x0s), map(add, y1s, x1s))
    # A plain loop: ``accumulate(ends, max)`` pays a builtin call per
    # piece and takes about four times as long.
    reach = []
    top = -math.inf
    for end in ends:
        if end > top:
            top = end
        reach.append(top)
    return WindowIndex(f.function, max(peaks), tuple(reach), peaks)


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
    if max_preemptions is not None:
        require(max_preemptions >= 0, f"max_preemptions must be >= 0, got {max_preemptions}")

    x0s, x1s, y0s, y1s = f.function.coordinates
    reach = None
    if index is None:
        # With every piece starting exactly where the previous one ends,
        # the pieces before the meeting piece end at or before p∩ and at
        # most one piece starts at p∩, so the walk can close the maximum
        # itself.
        exact = x1s[:-1] == x0s[1:]
    else:
        require(index.function is f.function, "index was built for another function")
        exact = True
        if q > index.peak:
            # No piece left of prog can reach the line, so the prefix
            # maxima of the reach only grow from the window's own pieces.
            reach, peaks = index.reach, index.peaks
    pieces = len(x0s)
    wcet = f.wcet
    floor = q - q * _MIN_PROGRESS_FRACTION
    # The trace, one list per WindowStep field after ``index``.
    columns: tuple[list[float], ...] = ([], [], [], [], [])
    progs, crosses, argmaxes, delays, nexts = columns
    total_delay = 0.0
    p_next = q  # no preemption can occur during the first Q units (line 4)

    iteration = 0
    while p_next < wcet:
        iteration += 1
        if iteration > max_iterations:
            raise ValueError(
                f"Algorithm 1 exceeded {max_iterations} iterations "
                f"(C={wcet}, Q={q}); the bound is close to divergence"
            )
        prog = p_next
        c = prog + q
        hi = wcet if wcet < c else c  # min(c, wcet) without a call
        # One walk over the pieces meeting [prog, hi]: lines 7-10 find
        # p∩, the first point where f meets D(x) = c - x, and each piece
        # passed on the way adds to the maximum of f on [prog, p∩].
        inside = bisect_right(x0s, prog)
        first = inside - 2
        if first < 0:
            first = 0
        last = bisect_right(x0s, hi) - 1
        if last < first:
            last = first
        ks = range(first, last + 1)
        if reach is not None and last - inside > _FOLD_MIN:
            # Pieces inside..below-1 start after prog and reach less than
            # the line: the walk would pass each of them below the line.
            below = bisect_left(reach, c * _BELOW, inside, last + 1)
            if below - inside > _FOLD_MIN:
                ks = itertools.chain(range(first, inside), (-1,), range(below, last + 1))
        best_v = -math.inf
        best_x = prog
        p_cross = None
        for k in ks:
            a, b, ya, yb = x0s[k], x1s[k], y0s[k], y1s[k]
            if prog < a and b < hi and ya - (c - a) < 0 and yb - (c - b) < 0:
                # Strictly inside the window and below the line.
                if yb > ya:
                    v, x = yb, b
                else:
                    v, x = ya, a
            elif k < 0:
                # The pieces inside..below-1 in one C-level fold (the last
                # piece, read for k = -1, ends at C >= hi, so it never
                # takes the branch above): the first of the largest
                # max(y0, y1), at the end the walk would pick.
                v = max(peaks[inside:below])
                j = peaks.index(v, inside, below)
                x = x1s[j] if y1s[j] > y0s[j] else x0s[j]
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
            return FloatingNPRBound(
                total_delay=math.inf,
                wcet=wcet,
                q=q,
                converged=False,
                preemptions=len(delays),
                trace=tuple(map(tuple, columns)),
            )
        p_next = c - best_v
        total_delay += best_v
        progs.append(prog)
        crosses.append(p_cross)
        argmaxes.append(best_x)
        delays.append(best_v)
        nexts.append(p_next)

    preemptions = len(delays)
    if max_preemptions is not None and max_preemptions < preemptions:
        # Release-pattern cap: the adversary gets to pick which windows
        # its (at most) k preemptions land in, so charge the k largest.
        total_delay = sum(sorted(delays, reverse=True)[:max_preemptions])
        preemptions = max_preemptions
    return FloatingNPRBound(
        total_delay=total_delay,
        wcet=wcet,
        q=q,
        converged=True,
        preemptions=preemptions,
        trace=tuple(map(tuple, columns)),
    )
