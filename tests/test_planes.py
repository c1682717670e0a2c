"""The working/protection plane as a value: the name forms of both planes,
and Q=2 plans whose parallel lightpaths go through the route decoder."""

import pytest

from otnplan import naming
from otnplan.formulation import PROTECTION, WORKING, expand_lightpaths
from otnplan.modes import Approach, SurvivabilityMode
from otnplan.netmodel import PhysicalTopology
from otnplan.planner import PlanError, PlanOptions, _MilpPhases, plan
from otnplan.verify import check_disjointness, check_restorability, enumerate_failures

from conftest import make_instance

Q2_DEMANDS = [(0, 2, 8), (0, 2, 8), (1, 3, 4)]


def test_name_forms_of_both_planes():
    assert naming.beta(WORKING, 0, 2, 1) == "wbeta_0_2_1"
    assert naming.beta(PROTECTION, 1, 3, 2) == "pbeta_1_3_2"
    assert naming.delta(WORKING, 4, 0, 2, 1) == "wdelta_4_0_2_1"
    assert naming.delta(PROTECTION, 4, 2, 0, 2) == "pdelta_4_2_0_2"
    assert naming.lam(WORKING, 3, 1, 0) == "wlam_3_1_0"
    assert naming.lam(PROTECTION, 3, 0, 1) == "plam_3_0_1"
    assert naming.lam_integrated(WORKING, 0, 2, 2, 1, 2) == "wlam_0_2_2_1_2"
    assert naming.lam_integrated(PROTECTION, 0, 2, 1, 0, 1) == "plam_0_2_1_0_1"


@pytest.mark.parametrize("mode, approach", [
    *((mode, Approach.SEQUENTIAL) for mode in SurvivabilityMode),
    (SurvivabilityMode.ML_INTERLAYER_BRS, Approach.INTEGRATED),
], ids=lambda v: v.value)
def test_q2_plan_uses_parallel_lightpaths(ring4, mode, approach):
    # two 8 Gbps LSPs between 0 and 2 cannot share one 10 Gbps lightpath
    inst = make_instance(ring4, Q2_DEMANDS, mode, approach, q=2)
    config = plan(inst, PlanOptions(gap=0.0, time_limit=120))
    assert {lp.q for lp in config.lightpaths} == {1, 2}
    for lp in config.lightpaths:
        route = config.lightpath_routes[lp.id]
        assert {route[0], route[-1]} == {lp.i, lp.j}
    load = {}
    for lsp in inst.traffic:
        walk = config.lsp_physical_walk(lsp.id)
        assert (walk[0], walk[-1]) == (lsp.source, lsp.destination)
        route = config.lsp_routes[lsp.id]
        for lp_id in route.working + (route.protection or ()):
            load[lp_id] = load.get(lp_id, 0) + lsp.bandwidth
    # every lightpath carries an LSP, and none more than its capacity
    assert sorted(load) == [lp.id for lp in config.lightpaths]
    assert max(load.values()) <= inst.params.C
    if mode is not SurvivabilityMode.NONE:
        report = check_restorability(config, enumerate_failures(config))
        assert report.fully_restorable, report.render()
        assert check_disjointness(config) == ()


def test_routing_phase_at_its_time_limit_names_no_binding():
    # both lightpaths' shortest route is the link (0,1), which has room for
    # one, so the phase is searched; the other can go round the ring
    topo = PhysicalTopology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)], W=1)
    inst = make_instance(topo, [(0, 1, 10), (0, 1, 10)], q=2)
    phases = _MilpPhases(inst, PlanOptions(gap=0.0, time_limit=0.0))
    with pytest.raises(PlanError) as err:
        phases.route("III-working-lightpaths", expand_lightpaths([(0, 1, 1), (0, 1, 2)]))
    assert err.value.detail == "time-limit"
    assert err.value.binding == ()


def test_infeasible_routing_phase_names_binding_link():
    topo = PhysicalTopology(range(3), [(0, 1), (1, 2)], W=1)
    inst = make_instance(topo, [(0, 2, 10), (1, 2, 10)])
    phases = _MilpPhases(inst, PlanOptions(gap=0.0, time_limit=60))
    with pytest.raises(PlanError) as err:
        phases.route("III-working-lightpaths", expand_lightpaths([(0, 2, 1), (1, 2, 1)]))
    assert err.value.detail == "infeasible"
    assert any("link (1,2)" in b for b in err.value.binding)
