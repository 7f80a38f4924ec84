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
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.core.delay_function import PreemptionDelayFunction
from repro.piecewise.function import _value_on
from repro.utils.checks import require, require_positive

#: Default hard cap on iterations; Algorithm 1 performs at most
#: ``C / (Q - delay_max)`` iterations, so hitting this cap indicates either
#: a pathological input or near-divergence.
DEFAULT_MAX_ITERATIONS = 1_000_000

#: Minimum guaranteed progression per window before the analysis declares
#: divergence, as a fraction of Q.  Guards against float-precision stalls.
_MIN_PROGRESS_FRACTION = 1e-12


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


def floating_npr_delay_bound(
    f: PreemptionDelayFunction,
    q: float,
    max_preemptions: int | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
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

    Returns:
        A :class:`FloatingNPRBound` with the bound, a convergence flag and
        the full per-window trace.

    Raises:
        ValueError: on invalid ``q``/``max_preemptions`` or if
            ``max_iterations`` is exhausted while still converging.
    """
    require_positive(q, "q")
    if max_preemptions is not None:
        require(max_preemptions >= 0, f"max_preemptions must be >= 0, got {max_preemptions}")

    x0s, x1s, y0s, y1s = f.function.coordinates
    # With every piece starting exactly where the previous one ends, the
    # pieces before the meeting piece end at or before p∩ and at most one
    # piece starts at p∩, so the walk can close the maximum itself.
    exact = x1s[:-1] == x0s[1:]
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
        hi = min(c, wcet)
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
