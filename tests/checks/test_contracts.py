"""Registry contracts, enforced where a family or a workload registers.

``register_family`` rejects ``field_help`` that drifts from the
scenario dataclass and a worker whose result no record decodes to; ``register_workload`` rejects unknown shared-flag
groups and parameters that shadow an enabled group's flags.  The test
classes keep the codes of the static rules these checks replaced
(``RC001``, ``RC002``, ``RC005``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest

from repro.api.workloads import Parameter, Workload, register_workload
from repro.engine.registry import ScenarioFamily, get_family, register_family

#: Every registration here lands in a throwaway registry.
pytestmark = pytest.mark.usefixtures("scratch_registries")


@dataclass(frozen=True)
class Scenario:
    q: float = 1.0
    knots: int = 64


def evaluate(scenario: Scenario) -> Scenario:
    return scenario


def context_key(scenario):
    return scenario.knots


@dataclass(frozen=True)
class Sampled:
    samples: list[float]


def unannotated(scenario):
    return scenario


def sampled(scenario: Scenario) -> Sampled:
    return Sampled([scenario.q])


def family(**kw):
    base = dict(
        name="fab",
        scenario_type=Scenario,
        worker=evaluate,
        summary="a fabricated family",
        context_key=context_key,
        field_help=(("q", "NPR length"), ("knots", "resolution")),
    )
    base.update(kw)
    return ScenarioFamily(**base)


class TestRc001Context:
    def test_declared_context_passes(self):
        fab = family()
        register_family(fab)
        assert get_family("fab") is fab

    def test_family_without_shared_state_registers(self):
        # context_key=None is the documented "no shared state" case;
        # the engine then runs the grid ungrouped.
        register_family(family(context_key=None))
        assert get_family("fab").context_key is None


class TestResultDecoding:
    def test_worker_without_return_annotation_is_refused(self):
        with pytest.raises(
            ValueError, match="'unannotated'.*no return annotation"
        ):
            register_family(family(worker=unannotated))

    def test_result_with_an_undecodable_field_is_refused(self):
        with pytest.raises(ValueError, match="'samples' of result 'Sampled'"):
            register_family(family(worker=sampled))

    def test_registered_family_decodes_by_its_result_type(self):
        register_family(family())
        decoded = get_family("fab").decoder({"q": "inf", "knots": 64})
        assert decoded == Scenario(q=math.inf, knots=64)


class TestRc002Axes:
    def test_exact_coverage_passes(self):
        register_family(family())

    def test_undocumented_axis_is_flagged(self):
        with pytest.raises(ValueError, match="'knots'"):
            register_family(family(field_help=(("q", "NPR length"),)))

    def test_stale_help_entry_is_flagged(self):
        help_ = (
            ("q", "NPR length"),
            ("knots", "resolution"),
            ("gone", "no such field"),
        )
        with pytest.raises(ValueError, match="'gone'"):
            register_family(family(field_help=help_))

    def test_empty_field_help_is_legal(self):
        register_family(family(field_help=()))
        assert all(axis.help == "" for axis in get_family("fab").axes())


def run_nothing(request, params):
    return None


def workload(**kw):
    base = dict(
        name="fab",
        summary="a fabricated workload",
        parameters=(),
        runner=run_nothing,
        render=str,
        flags=frozenset({"engine"}),
    )
    base.update(kw)
    return Workload(**base)


class TestRc005WorkloadFlags:
    def test_known_groups_pass(self):
        register_workload(
            workload(flags=frozenset({"engine", "store", "shard", "sink"}))
        )

    def test_unknown_group_is_flagged(self):
        with pytest.raises(ValueError, match="'bogus'"):
            register_workload(
                workload(flags=frozenset({"engine", "bogus"}))
            )

    def test_parameter_shadowing_a_group_flag_is_flagged(self):
        with pytest.raises(ValueError, match="'jobs'"):
            register_workload(
                workload(parameters=(Parameter("jobs", int, 1),))
            )

    def test_same_name_without_that_group_is_fine(self):
        # merge/check declare a 'format' parameter but not the sink
        # group, so there is no collision to reject.
        register_workload(
            workload(
                flags=frozenset({"engine"}),
                parameters=(Parameter("format", str, "text"),),
            )
        )
