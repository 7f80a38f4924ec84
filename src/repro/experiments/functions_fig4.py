"""The paper's synthetic benchmark delay functions (Section VI, Figure 4).

Three functions over ``C = 4000`` with maximum value 10:

* **Gaussian 1** — bell with ``sigma^2 = 300``, ``mu = 2000``;
* **Gaussian 2** — bell with ``sigma^2 = 3000``, same mean;
* **2 local maximum** — two bells separated in time.

The paper's parameter list is internally inconsistent (it gives
Gaussian 1 "a vertical offset of 10 units" *and* says all functions share
maximum value 10, while its Figure 5 shows all three curves well below
the shape-oblivious state of the art — impossible with a floor of 10).
We therefore implement the two load-bearing properties (shared max 10,
shared C = 4000) in the default ``"literal"`` interpretation and expose
the other readings as explicit ablation interpretations:

* ``"literal"``   — ``sigma^2`` taken literally, no offset (default);
* ``"sigma"``     — the printed values treated as ``sigma`` instead;
* ``"offset10"``  — Gaussian 1 given a high floor, rescaled to max 10.

All functions are built as *exact piecewise-constant upper bounds* of the
closed forms (:func:`repro.piecewise.gaussian_upper_step`), so every
bound computed from them is safe with respect to the true curves.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.core.delay_function import PreemptionDelayFunction
from repro.piecewise import gaussian_upper_step, max_envelope
from repro.utils.checks import require

#: The paper's common parameters (Section VI).
FIG4_WCET = 4000.0
FIG4_MAX = 10.0

#: Names of the three benchmark functions, in the paper's order.
FIG4_NAMES = ("gaussian1", "gaussian2", "bimodal")

#: Supported parameter interpretations (see module docstring).
INTERPRETATIONS = ("literal", "sigma", "offset10")


def gaussian(
    mu: float, sigma2: float, amplitude: float, offset: float = 0.0
) -> Callable[[float], float]:
    """The closed-form bell ``offset + amplitude * exp(-(t-mu)^2 / (2 sigma^2))``."""
    require(sigma2 > 0, f"sigma^2 must be positive, got {sigma2}")
    return lambda t: offset + amplitude * math.exp(
        -((t - mu) ** 2) / (2.0 * sigma2)
    )


def _bell_function(
    mu: float,
    sigma2: float,
    amplitude: float,
    offset: float,
    knots: int,
    wcet: float,
) -> PreemptionDelayFunction:
    require(sigma2 > 0, f"sigma^2 must be positive, got {sigma2}")
    return PreemptionDelayFunction(
        gaussian_upper_step(
            mu, sigma2, amplitude, lo=0.0, hi=wcet, knots=knots, offset=offset
        )
    )


def fig4_delay_function(
    name: str,
    interpretation: str = "literal",
    knots: int = 2048,
    wcet: float = FIG4_WCET,
) -> PreemptionDelayFunction:
    """Build one of the paper's three benchmark functions.

    Args:
        name: ``"gaussian1"``, ``"gaussian2"`` or ``"bimodal"``.
        interpretation: One of :data:`INTERPRETATIONS`.
        knots: Piecewise-constant resolution.
        wcet: Domain length (the paper's ``C = 4000``).

    Returns:
        The delay function, with maximum value exactly :data:`FIG4_MAX`.
    """
    require(name in FIG4_NAMES, f"unknown function {name!r}; pick from {FIG4_NAMES}")
    require(
        interpretation in INTERPRETATIONS,
        f"unknown interpretation {interpretation!r}; pick from {INTERPRETATIONS}",
    )
    mid = wcet / 2.0

    if interpretation == "sigma":
        s1, s2 = 300.0**2, 3000.0**2
    else:
        s1, s2 = 300.0, 3000.0

    if name == "gaussian1":
        if interpretation == "offset10":
            # High floor reading, rescaled so the max stays at 10: floor
            # 10 and amplitude 10 would peak at 20, so halve both.
            return _bell_function(mid, s1, FIG4_MAX / 2, FIG4_MAX / 2, knots, wcet)
        return _bell_function(mid, s1, FIG4_MAX, 0.0, knots, wcet)

    if name == "gaussian2":
        return _bell_function(mid, s2, FIG4_MAX, 0.0, knots, wcet)

    # "2 local maximum": two bells separated in time; the global max is
    # FIG4_MAX (left peak), the right peak is lower so both are genuine
    # local maxima.
    left = _bell_function(0.3 * wcet, s2, FIG4_MAX, 0.0, knots, wcet)
    right = _bell_function(0.7 * wcet, s2, 0.8 * FIG4_MAX, 0.0, knots, wcet)
    return PreemptionDelayFunction(
        max_envelope(left.function, right.function)
    )


def fig4_functions(
    interpretation: str = "literal",
    knots: int = 2048,
    wcet: float = FIG4_WCET,
) -> dict[str, PreemptionDelayFunction]:
    """All three benchmark functions keyed by name."""
    return {
        name: fig4_delay_function(name, interpretation, knots, wcet)
        for name in FIG4_NAMES
    }
