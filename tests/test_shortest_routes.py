"""At gap 0 a lightpath-routing phase is answered by each lightpath's
lexicographically shortest route when those routes fit the wavelength
budgets (``planner._shortest_routes``), and searched as a MILP otherwise.

The shortest routes are compared with the search on the routing phases that
seeded Q = 2 plans pose, with their real exclusion sets, at budgets from
W = 1 up; and the phase records show which of the two answered."""

import random

import pytest

from otnplan import naming, planner
from otnplan.formulation import ExclusionSets, build_lightpath_routing
from otnplan.milp import check_solution
from otnplan.modes import SurvivabilityMode
from otnplan.netmodel import PhysicalTopology, generate_topology, normalize_link
from otnplan.planner import PlanError, PlanOptions, plan

from conftest import BINDING_DEMANDS, BINDING_TOPOLOGY, make_instance

EXACT = PlanOptions(gap=0.0, time_limit=60)
ROUTING_PHASES = ("III-working-lightpaths", "III-spare-carrier-lightpaths",
                  "IV-protection-lightpaths")


def _posed_phases(seed: int, draws: int) -> list:
    """(instance, label, lightpaths, routing keywords) of every routing phase
    that gap-0 plans pose on ``draws`` seeded Q = 2 instances, in the modes
    with steps III-spare (``single-layer``) and IV (the multilayer ones)."""
    posed = []
    route = planner._MilpPhases.route

    def recording(phases, label, lightpaths, **routing):
        posed.append((phases.instance, label, tuple(lightpaths), routing))
        return route(phases, label, lightpaths, **routing)

    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner._MilpPhases, "route", recording)
        for _ in range(draws):
            n = rng.choice([4, 5])
            topo = generate_topology(n, rng.choice([2.5, 3]), seed=rng.randint(0, 10 ** 6))
            s, d = rng.sample(range(n), 2)
            # two 8 Gbps LSPs between one pair need parallel lightpaths
            demands = [(s, d, 8), (s, d, 8)] + [
                (*rng.sample(range(n), 2), rng.choice([4, 6, 10]))
                for _ in range(rng.randint(0, 1))]
            for mode in (SurvivabilityMode.SINGLE_LAYER, SurvivabilityMode.ML_DOUBLE,
                         SurvivabilityMode.ML_SPARE_UNPROTECTED):
                try:
                    plan(make_instance(topo, demands, mode, q=2), EXACT)
                except PlanError:
                    pass
    return posed


def _key(model, values) -> tuple:
    """(cost, tie 1, tie 2) of the columns at 1, the search's three stages."""
    taken = [vid for vid, x in values.items() if x > 0.5]
    return (sum(model.objective[vid] for vid in taken),
            sum(naming.tie_weight(model.names[vid], 1) for vid in taken),
            sum(naming.tie_weight(model.names[vid], 2) for vid in taken))


def test_shortest_routes_equal_the_search_unless_a_budget_binds():
    posed = _posed_phases(seed=3, draws=6)
    assert {label for _, label, *_ in posed} == set(ROUTING_PHASES)
    assert any(lp.q == 2 for _, _, lightpaths, _ in posed for lp in lightpaths)
    assert any(routing.get("exclusions") for *_, routing in posed)
    answered = declined = 0
    for inst, label, lightpaths, routing in posed:
        for W in (1, 2, 3, 32):
            topo = PhysicalTopology(inst.topology.nodes, inst.topology.links, W=W)
            model, varmap = build_lightpath_routing(list(lightpaths), topo,
                                                    inst.unit_costs, **routing)
            short = planner._shortest_routes(model, varmap.lam, lightpaths)
            if short is None:
                assert planner._cut_off(lightpaths, topo,
                                        routing.get("exclusions") or ExclusionSets())
                continue
            usage: dict = {}
            for (_lp, m, n), vid in varmap.lam.items():
                if vid in short:
                    link = normalize_link(m, n)
                    usage[link] = usage.get(link, 0) + 1
            used = routing.get("wavelengths_used") or {}
            binds = any(usage.get(link, 0) > W - used.get(link, 0) for link in topo.links)
            violations = check_solution(model, short)
            assert bool(violations) is binds, (label, W)
            assert all(v.startswith("constraint eq17[") for v in violations), violations
            twin, twin_map = build_lightpath_routing(list(lightpaths), topo,
                                                     inst.unit_costs, **routing)
            try:
                searched = planner._MilpPhases(inst, EXACT)._solve(
                    twin, [twin_map.optical_objective], label)
            except PlanError as exc:
                assert binds and exc.detail == "infeasible", (label, W, exc)
                declined += 1
                continue
            if binds:
                # the shortest routes are the optimum without the budgets
                assert _key(model, searched) >= _key(model, short), (label, W)
                declined += 1
            else:
                assert {vid: x for vid, x in searched.items() if x} == short, (label, W)
                answered += 1
    assert answered > 50 and declined > 20


def test_slack_routing_phases_take_no_node_on_the_suite(suite_results):
    """Every routing phase of the suite's gap-0 plans is answered by its
    shortest routes: W = 32 has room for every route of every lightpath and
    its backup, so no budget can bind."""
    phases = 0
    for config, _cost, _oracle in suite_results.values():
        assert 2 * len(config.lightpaths) <= config.instance.topology.W
        for record in config.phases:
            if record.name in ROUTING_PHASES:
                assert (record.status, record.nodes, record.lp_iterations, record.gap) == (
                    "optimal", 0, 0, 0.0), record
                assert record.objective == record.best_bound > 0
                phases += 1
    assert phases > 100


def test_binding_routing_phases_are_searched():
    config = plan(make_instance(BINDING_TOPOLOGY, BINDING_DEMANDS,
                                SurvivabilityMode.SINGLE_LAYER), EXACT)
    nodes = {record.name: record.nodes for record in config.phases}
    assert nodes["III-working-lightpaths"] >= 1
    assert nodes["III-spare-carrier-lightpaths"] >= 1


def test_positive_gap_searches_every_routing_phase(ring4):
    inst = make_instance(ring4, [(0, 2, 10), (1, 3, 6)], SurvivabilityMode.SINGLE_LAYER)
    config = plan(inst, PlanOptions(gap=0.03, time_limit=60))
    assert [record.nodes >= 1 for record in config.phases
            if record.name in ROUTING_PHASES] == [True, True]
