"""Integrated-approach agreement with the enumeration oracle, including the
protection phases with in-model conditional exclusions."""

import pytest

from otnplan.modes import Approach, SurvivabilityMode
from otnplan.oracle import brute_force_optimum
from otnplan.planner import PlanError, PlanOptions, plan

from conftest import config_without_phases, make_instance

EXACT = PlanOptions(gap=0.0, time_limit=300)

CHECK_MODES = (SurvivabilityMode.SINGLE_LAYER,
               SurvivabilityMode.ML_SPARE_UNPROTECTED,
               SurvivabilityMode.ML_INTERLAYER_BRS)


def test_integrated_matches_oracle(small_suite):
    compared = 0
    for topo, demands in small_suite[:3]:
        for mode in CHECK_MODES:
            inst = make_instance(topo, demands, mode, Approach.INTEGRATED)
            try:
                config = plan(inst, EXACT)
            except PlanError:
                with pytest.raises(PlanError):
                    brute_force_optimum(inst)
                continue
            cost, oracle_config = brute_force_optimum(inst)
            assert config.cost.total == cost, (mode, demands)
            assert config_without_phases(config) == config_without_phases(oracle_config), \
                (mode, demands)
            compared += 1
    assert compared >= 6


def test_plan_is_deterministic(ring4_factory):
    inst = ring4_factory(SurvivabilityMode.ML_INTERLAYER_BRS)
    a = plan(inst, EXACT)
    b = plan(inst, EXACT)
    assert config_without_phases(a) == config_without_phases(b)
    assert [(p.name, p.nodes, p.lp_iterations) for p in a.phases] == \
           [(p.name, p.nodes, p.lp_iterations) for p in b.phases]
