"""The oracle's logical enumeration against a direct re-scoring, and the
integrated pick moving past an unplaceable cost optimum."""

import itertools
import random
from fractions import Fraction

from otnplan import naming
from otnplan.formulation import PROTECTION, WORKING
from otnplan.modes import Approach, SurvivabilityMode
from otnplan.netmodel import COST_RATIO_PRESETS, PhysicalTopology, normalize_link
from otnplan.oracle import _best_logical, _pick_integrated

from conftest import make_instance


def _reference_paths(nodes, s, d, banned):
    """Every simple s-d walk over the complete graph on ``nodes``, sorted."""
    if s in banned or d in banned:
        return []
    middle = [v for v in nodes if v not in (s, d) and v not in banned]
    return sorted((s, *via, d) for r in range(len(middle) + 1)
                  for via in itertools.permutations(middle, r))


def _reference_best_logical(instance, lsps, plane, excluded_nodes,
                            interface_used, forbidden):
    """Score each routing on its own with Fraction loads and costs and with
    ``naming.tie_score`` over its active entity names."""
    params, uc = instance.params, instance.unit_costs
    beta_name = naming.wbeta if plane == WORKING else naming.pbeta
    delta_name = naming.wdelta if plane == WORKING else naming.pdelta
    nodes = sorted(instance.topology.nodes)
    per_lsp = [_reference_paths(nodes, lsp.source, lsp.destination,
                                excluded_nodes.get(lsp.id, frozenset()))
               for lsp in lsps]
    results = []
    for combo in itertools.product(*per_lsp):
        hops = {lsp.id: [normalize_link(a, b) for a, b in zip(path, path[1:])]
                for lsp, path in zip(lsps, combo)}
        load = {}
        for lsp in lsps:
            for pair in hops[lsp.id]:
                load[pair] = load.get(pair, Fraction(0)) + lsp.bandwidth
        if any(v > params.C for v in load.values()):
            continue
        degree = {}
        for a, b in load:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        if any(cnt + interface_used.get(n, 0) > params.T for n, cnt in degree.items()):
            continue
        if any(all((i, j) in hops.get(k, ()) for (k, i, j, _q) in grouping)
               for grouping in forbidden):
            continue
        cost = uc.c_lp * len(load) + sum(
            uc.c_tt * lsp.bandwidth * (len(path) - 2) for lsp, path in zip(lsps, combo))
        names = [beta_name(i, j, 1) for (i, j) in load]
        names += [delta_name(lsp.id, a, b, 1) for lsp, path in zip(lsps, combo)
                  for a, b in zip(path, path[1:])]
        results.append((cost, naming.tie_score(names, 1), naming.tie_score(names, 2),
                        {lsp.id: path for lsp, path in zip(lsps, combo)}))
    results.sort(key=lambda r: r[:3])
    return results


def _random_case(rng):
    n = rng.randint(3, 5)
    topo = PhysicalTopology(range(n), [(v, (v + 1) % n) for v in range(n)])
    demands = [(*rng.sample(range(n), 2), rng.choice([2, 2.5, 3.5, 4, 6, 10]))
               for _ in range(rng.randint(1, 3))]
    ratios = COST_RATIO_PRESETS[rng.choice(["CR1", "CR2", "CR3"])]
    inst = make_instance(topo, demands, ratios=ratios)
    lsps = inst.traffic
    excluded = {}
    for lsp in lsps:
        others = [v for v in range(n) if v not in (lsp.source, lsp.destination)]
        if others and rng.random() < 0.5:
            excluded[lsp.id] = frozenset(rng.sample(others, 1))
    used = {v: inst.params.T - rng.choice([1, 2]) for v in rng.sample(range(n), 2)}
    forbidden = []
    for _ in range(rng.randint(1, 2)):
        lsp = rng.choice(lsps)
        path = rng.choice(_reference_paths(range(n), lsp.source, lsp.destination, ()))
        forbidden.append(tuple((lsp.id, *normalize_link(a, b), 1)
                               for a, b in zip(path, path[1:])))
    plane = rng.choice([WORKING, PROTECTION])
    return inst, lsps, plane, excluded, used, tuple(forbidden)


def test_best_logical_equals_direct_rescoring():
    rng = random.Random(20240611)
    past_optimum = interface_bound = 0
    for _ in range(60):
        inst, lsps, plane, excluded, used, forbidden = _random_case(rng)
        got = _best_logical(inst, lsps, plane, excluded, used, forbidden)
        want = _reference_best_logical(inst, lsps, plane, excluded, used, forbidden)
        assert got == want
        assert all(type(entry[0]) is Fraction for entry in got)
        past_optimum += sum(1 for entry in got if entry[0] > got[0][0])
        unbudgeted = _reference_best_logical(inst, lsps, plane, excluded, {}, forbidden)
        interface_bound += len(unbudgeted) > len(want)
    # the cases reach past the cost optimum and the interface budget binds
    assert past_optimum > 0
    assert interface_bound > 0


def test_best_logical_fractional_costs_and_loads():
    """CR2 and CR3 make c_tt·b fractional; 2.5 + 3.5 + 4 fills C exactly."""
    topo = PhysicalTopology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    for label in ("CR1", "CR2", "CR3"):
        inst = make_instance(topo, [(0, 2, 2.5), (0, 2, 3.5), (0, 2, 4)],
                             ratios=COST_RATIO_PRESETS[label])
        got = _best_logical(inst, inst.traffic, WORKING, {}, {}, ())
        assert got == _reference_best_logical(inst, inst.traffic, WORKING, {}, {}, ())
        assert got[0][3] == {lsp.id: (0, 2) for lsp in inst.traffic}
        assert got[0][0] == inst.unit_costs.c_lp


def test_pick_integrated_moves_past_unplaceable_optimum():
    """Two LSPs 0->2 on a ring: a lightpath carrying both must avoid the
    physical links excluded for either, which blocks both ring sides.  Every
    routing of the two cheapest cost levels puts both LSPs on one path, so
    the pick must come from a later cost level."""
    topo = PhysicalTopology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst = make_instance(topo, [(0, 2, 4), (0, 2, 3.5)],
                         SurvivabilityMode.SINGLE_LAYER, Approach.INTEGRATED)
    uc = inst.unit_costs
    a, b = (lsp.id for lsp in inst.traffic)
    logical = _best_logical(inst, inst.traffic, PROTECTION, {}, {}, ())
    assert logical[0][3] == {a: (0, 2), b: (0, 2)}
    phys_links = {a: frozenset({(0, 1)}), b: frozenset({(0, 3)})}
    picked = _pick_integrated(inst, logical, PROTECTION, ({}, phys_links, {}))
    assert picked is not None
    routes_logical, pair_routes = picked

    cost_of = {tuple(sorted(entry[3].items())): entry[0] for entry in logical}
    picked_cost = cost_of[tuple(sorted(routes_logical.items()))]
    # the 4 Gbps LSP goes direct, the 3.5 Gbps one transits one router
    assert picked_cost == 3 * uc.c_lp + uc.c_tt * Fraction(7, 2)
    cheaper = [entry for entry in logical if entry[0] < picked_cost]
    assert {entry[0] for entry in cheaper} == {
        uc.c_lp, 2 * uc.c_lp + uc.c_tt * Fraction(15, 2)}
    assert all(entry[3][a] == entry[3][b] for entry in cheaper)
    # every placed lightpath avoids the links excluded for the LSPs it carries
    for (i, j, _q), walk in pair_routes.items():
        links = {normalize_link(m, n) for m, n in zip(walk, walk[1:])}
        for k, path in routes_logical.items():
            if (i, j) in {normalize_link(m, n) for m, n in zip(path, path[1:])}:
                assert not links & phys_links[k]
    # without the exclusions the cost optimum itself is placed
    unblocked, _ = _pick_integrated(inst, logical, PROTECTION, ({}, {}, {}))
    assert unblocked == logical[0][3]


def test_pick_integrated_nothing_placeable():
    """With both links at node 0 already full no lightpath can leave it, so no
    routing at any cost level can be placed."""
    topo = PhysicalTopology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)], W=1)
    inst = make_instance(topo, [(0, 2, 4), (0, 2, 3.5)],
                         SurvivabilityMode.SINGLE_LAYER, Approach.INTEGRATED)
    logical = _best_logical(inst, inst.traffic, PROTECTION, {}, {}, ())
    full = {(0, 1): 1, (0, 3): 1}
    assert _pick_integrated(inst, logical, PROTECTION, ({}, {}, full)) is None
