"""The ``hold`` scenario family: workers that wait until the test says go.

Fault tests must poke at a job while it is provably still running; a
job that is merely slow can finish first on a fast or idle host.  A
``hold`` worker blocks on :data:`RELEASE` until the test sets it, so the
job cannot end before the test has done what it came to do.

:data:`RELEASE` is a :mod:`multiprocessing` event: it works for workers
on the server's slot threads and, through fork inheritance, for workers
on an engine process pool (``jobs=2``).  The ``hold`` fixture in
``conftest.py`` installs a fresh event and registers the family per
test; these definitions live outside ``conftest.py`` so that pool
workers can pickle them by module name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.engine.registry import ScenarioFamily

#: Seconds a held worker waits before failing its scenario, so a test
#: that forgets to release fails instead of hanging the suite.
HOLD_TIMEOUT = 60.0

#: The release switch: a fresh ``multiprocessing.Event`` per test,
#: installed by the ``hold`` fixture.
RELEASE: Any = None


@dataclass(frozen=True, slots=True)
class HoldScenario:
    """One held scenario."""

    q: float


@dataclass(frozen=True, slots=True)
class HoldResult:
    """What a released worker returns: its scenario's ``q``."""

    q: float


def evaluate_hold_scenario(scenario: HoldScenario) -> HoldResult:
    """Wait for :data:`RELEASE`, then return the scenario's ``q``."""
    if not RELEASE.wait(HOLD_TIMEOUT):
        raise RuntimeError("the hold was never released")
    return HoldResult(q=scenario.q)


HOLD_FAMILY = ScenarioFamily(
    name="hold",
    scenario_type=HoldScenario,
    worker=evaluate_hold_scenario,
    summary="test-only: workers wait until the test releases them",
)
