"""At gap 0 in the sequential approach a logical-design phase with one LSP is
answered by that LSP's lexicographically shortest logical route when the
route meets every row of the phase's model (``planner._shortest_lsp_route``),
and searched as a MILP otherwise.

The shortest routes are compared with the search on the single-LSP phases
that seeded Q = 1 and Q = 2 plans pose on both planes, with their real
exclusion sets and interface usage, and on variants that make the shortcut
decline: a binding interface budget, a no-good grouping cut across the
route, and an excluded destination.  The phase records show which of the
two answered."""

import random
from dataclasses import replace

import pytest

from otnplan import planner
from otnplan.formulation import PROTECTION, build_logical_design
from otnplan.milp import check_solution
from otnplan.modes import Approach
from otnplan.netmodel import generate_topology
from otnplan.planner import PlanError, PlanOptions, plan

from conftest import ALL_MODES, make_instance

EXACT = PlanOptions(gap=0.0, time_limit=60)
LOGICAL_PHASES = ("I-working-logical", "II-protection-logical")


def _posed_phases(seed: int, draws: int) -> list:
    """(instance, label, plane, context) of every single-LSP logical phase
    that gap-0 sequential plans pose on ``draws`` seeded instances, Q = 1
    and Q = 2 in turn, in every mode."""
    posed = []
    logical = planner._MilpPhases.logical

    def recording(phases, label, plane, context=None):
        lsps = phases.instance.traffic if context is None else context.protected
        if len(lsps) == 1:
            posed.append((phases.instance, label, plane, context))
        return logical(phases, label, plane, context)

    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner._MilpPhases, "logical", recording)
        for draw in range(draws):
            n = rng.choice([4, 5, 6])
            topo = generate_topology(n, rng.choice([2.5, 3]), seed=rng.randint(0, 10 ** 6))
            a, b, c = rng.sample(range(n), 3)
            # one LSP, or a chain a-b-c whose small a-c LSP rides the other
            # two LSPs' lightpaths, so that the multilayer modes protect it alone
            demands = ([(a, c, rng.choice([2, 4, 6, 8, 10]))] if rng.random() < 0.5 else
                       [(a, b, rng.choice([4, 6])), (b, c, rng.choice([4, 6])), (a, c, 2)])
            for mode in ALL_MODES:
                try:
                    plan(make_instance(topo, demands, mode, q=1 + draw % 2), EXACT)
                except PlanError:
                    pass
    return posed


def _design(inst, label, plane, context, shortcut=True):
    """What ``logical`` returns for the phase, or the detail and binding
    rows of its ``PlanError``, and the phase's record; with ``shortcut``
    false the phase is searched whatever its shortest route."""
    phases = planner._MilpPhases(inst, EXACT)
    with pytest.MonkeyPatch.context() as mp:
        if not shortcut:
            mp.setattr(planner, "_shortest_lsp_route", lambda *args: None)
        try:
            return phases.logical(label, plane, context), phases.records[label]
        except PlanError as exc:
            return (exc.detail, exc.binding), phases.records.get(label)


def _variants(inst, plane, context):
    """The phase as posed, with T = 1 and, on the protection plane, with a
    no-good grouping cut and with an excluded destination, each with the
    prefix of the violations that make the shortcut decline (None when it
    must answer, '' when it finds no route).

    The shortest route is the direct hop, the cheapest of all, which needs
    one interface at each end: T = 1 holds on the working plane, and leaves
    no route on the protection plane, whose ends hold a working lightpath
    each.  The cut forbids the copy of the direct hop that the route takes,
    so the search takes the other copy or a detour."""
    yield "posed", inst, context, None
    yield "T=1", replace(inst, params=replace(inst.params, T=1)), context, (
        "constraint eq7[" if plane == PROTECTION else None)
    if plane == PROTECTION:
        lsp = context.protected[0]
        (direct,), _violations = _shortest(inst, plane, context)
        q = direct[-1]
        yield "cut", inst, replace(context, forbidden_groupings=(
            ((lsp.id, min(lsp.source, lsp.destination), max(lsp.source, lsp.destination), q),),
        )), "constraint cut["
        nodes = context.exclusions.lsp_nodes
        yield "no route", inst, replace(context, exclusions=replace(context.exclusions, lsp_nodes={
            **nodes, lsp.id: nodes.get(lsp.id, frozenset()) | {lsp.destination}})), ""


def _shortest(inst, plane, context):
    """The δ keys of the phase's shortest route and that route's
    violations of the phase's model, or None when there is no route."""
    model, varmap = build_logical_design(inst, plane, context)
    lsp = inst.traffic[0] if context is None else context.protected[0]
    short = planner._shortest_lsp_route(model, varmap.delta, varmap.beta, lsp)
    if short is None:
        return None
    return ([key for key, vid in varmap.delta.items() if vid in short],
            check_solution(model, short))


def test_shortest_lsp_routes_equal_the_search_unless_a_row_binds():
    posed = _posed_phases(seed=5, draws=12)
    assert {label for _, label, *_ in posed} == set(LOGICAL_PHASES)
    assert {inst.params.Q for inst, *_ in posed} == {1, 2}
    assert any(context.exclusions.lsp_nodes.get(context.protected[0].id)
               for *_, context in posed if context)
    assert all(context.interface_usage for *_, context in posed if context)
    counts: dict = {}
    for inst, label, plane, posed_context in posed:
        for variant, case, context, declines in _variants(inst, plane, posed_context):
            shortest = _shortest(case, plane, context)
            answer, record = _design(case, label, plane, context)
            searched, twin = _design(case, label, plane, context, shortcut=False)
            assert answer == searched, (label, variant)
            if declines is None:
                # answered: the search's optimum, with no node and no pivot
                assert not shortest[1], (label, variant)
                assert (record.status, record.nodes, record.lp_iterations, record.gap) == (
                    "optimal", 0, 0, 0.0), (label, variant)
                assert record.objective == record.best_bound == pytest.approx(twin.objective)
                assert twin.nodes >= 1
            else:
                assert (shortest is None) is (declines == ""), (label, variant)
                if shortest is not None:
                    assert shortest[1] and all(v.startswith(declines) for v in shortest[1])
                assert (record is None) is (twin is None), (label, variant)
                if twin is not None:
                    assert record == replace(twin, wall_time=record.wall_time), (label, variant)
            outcome = "infeasible" if record is None else "searched" if record.nodes else "answered"
            counts[variant, outcome] = counts.get((variant, outcome), 0) + 1
    assert set(counts) == {("posed", "answered"), ("T=1", "answered"), ("T=1", "infeasible"),
                           ("cut", "searched"), ("no route", "infeasible")}, counts
    assert min(counts.values()) > 10, counts


def test_shortest_lsp_route_keeps_to_its_own_lsp(ring4):
    """On a two-LSP model the route takes only its own LSP's δ columns,
    although the other LSP's, at a smaller bandwidth, cost less; it is the
    route the LSP gets on a model of its own: the direct hop."""
    demands = [(0, 2, 8), (1, 3, 2)]
    inst = make_instance(ring4, demands)
    lsp, other = inst.traffic
    model, varmap = build_logical_design(inst, "working")
    alone, alone_map = build_logical_design(make_instance(ring4, demands[:1]), "working")
    assert (model.objective[varmap.delta[(other.id, 0, 2, 1)]]
            < model.objective[varmap.delta[(lsp.id, 0, 2, 1)]])

    def keys(route, varmap):
        return ({key for key, vid in varmap.delta.items() if vid in route},
                {key for key, vid in varmap.beta.items() if vid in route})
    route = keys(planner._shortest_lsp_route(model, varmap.delta, varmap.beta, lsp), varmap)
    assert route == ({(lsp.id, 0, 2, 1)}, {(0, 2, 1)})
    assert route == keys(
        planner._shortest_lsp_route(alone, alone_map.delta, alone_map.beta, lsp), alone_map)


def _lsp_count(config, name: str) -> int:
    """How many LSPs the logical phase ``name`` of a plan routed: every LSP
    on the working plane, the protected ones on the protection plane."""
    if name == "I-working-logical":
        return len(config.instance.traffic)
    return sum(route.protection is not None for route in config.lsp_routes.values())


def test_one_lsp_phases_take_no_node_at_gap_0_only(small_suite, suite_results):
    """Every single-LSP logical phase of the suite's gap-0 sequential plans
    is answered by its shortest route; the same phases at gap 0.03, or in
    the integrated approach, are searched."""
    single = set()
    for (idx, mode), (config, _cost, _oracle) in suite_results.items():
        for record in config.phases:
            if record.name in LOGICAL_PHASES and _lsp_count(config, record.name) == 1:
                assert (record.status, record.nodes, record.lp_iterations, record.gap) == (
                    "optimal", 0, 0, 0.0), record
                assert record.objective == record.best_bound > 0
                single.add((idx, mode, record.name))
            elif record.name in LOGICAL_PHASES:
                assert record.nodes >= 1, record
    assert len(single) > 60
    searched = 0
    for options, approach, instances in (
            (PlanOptions(gap=0.03, time_limit=60), Approach.SEQUENTIAL, small_suite),
            (EXACT, Approach.INTEGRATED, small_suite[:8])):
        for idx, (topo, demands) in enumerate(instances):
            for mode in ALL_MODES:
                config = plan(make_instance(topo, demands, mode, approach), options)
                for record in config.phases:
                    if (idx, mode, record.name) in single:
                        assert record.nodes >= 1, (approach, options, record)
                        searched += 1
    assert searched > 60
