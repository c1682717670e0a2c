"""The oracle's logical cost levels against a direct re-scoring of every
routing, and the integrated pick moving past an unplaceable cost optimum,
reading no level past the one it picks."""

import itertools
import random
from fractions import Fraction

from otnplan import naming
from otnplan.formulation import PROTECTION, WORKING, ExclusionSets, ProtectionContext
from otnplan.modes import Approach, SurvivabilityMode
from otnplan.netmodel import COST_RATIO_PRESETS, PhysicalTopology, normalize_link
from otnplan.oracle import _logical_levels, _pick_integrated

from conftest import make_instance


def _reference_paths(nodes, s, d, banned):
    """Every simple s-d walk over the complete graph on ``nodes``, sorted."""
    if s in banned or d in banned:
        return []
    middle = [v for v in nodes if v not in (s, d) and v not in banned]
    return sorted((s, *via, d) for r in range(len(middle) + 1)
                  for via in itertools.permutations(middle, r))


def _tie_score(names, level):
    return sum(naming.tie_weight(name, level) for name in names)


def _reference_best_logical(instance, lsps, plane, excluded_nodes,
                            interface_used, forbidden):
    """Score each routing of the product of every LSP's paths on its own,
    with Fraction loads and costs and the tie weights of its active entity
    names, and sort them all by (cost, tie1, tie2)."""
    params, uc = instance.params, instance.unit_costs
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
        names = [naming.beta(plane, i, j, 1) for (i, j) in load]
        names += [naming.delta(plane, lsp.id, a, b, 1) for lsp, path in zip(lsps, combo)
                  for a, b in zip(path, path[1:])]
        results.append((cost, _tie_score(names, 1), _tie_score(names, 2),
                        {lsp.id: path for lsp, path in zip(lsps, combo)}))
    results.sort(key=lambda r: r[:3])
    return results


def _random_case(rng, symmetric=False):
    """A ring of 3-5 nodes with 1-3 demands, some exclusions, a binding
    interface budget and one or two forbidden groupings.  ``symmetric``
    draws one demand, its reverse and possibly a copy, so that routings that
    swap the LSPs' paths tie in cost."""
    n = rng.randint(3, 5)
    topo = PhysicalTopology(range(n), [(v, (v + 1) % n) for v in range(n)])
    if symmetric:
        s, d = rng.sample(range(n), 2)
        b = rng.choice([2, 2.5, 3.5, 4])
        demands = [(s, d, b), (d, s, b), (s, d, b)][:rng.randint(2, 3)]
    else:
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


def _levels(*args):
    levels = list(_logical_levels(*args))
    for level in levels:
        assert level and {entry[0] for entry in level} == {level[0][0]}
        assert type(level[0][0]) is Fraction
        assert [entry[1:3] for entry in level] == sorted(entry[1:3] for entry in level)
    costs = [level[0][0] for level in levels]
    assert costs == sorted(set(costs))
    return levels


def test_best_logical_equals_direct_rescoring():
    """The levels, concatenated, are the brute-force list: every feasible
    routing, by cost, then tie scores, then product order."""
    rng = random.Random(20240611)
    several_levels = interface_bound = 0
    ties = {False: 0, True: 0}
    for case in range(200):
        symmetric = case % 4 == 3
        inst, lsps, plane, excluded, used, forbidden = _random_case(rng, symmetric)
        levels = _levels(inst, lsps, plane, excluded, used, forbidden)
        want = _reference_best_logical(inst, lsps, plane, excluded, used, forbidden)
        assert [entry for level in levels for entry in level] == want
        several_levels += len(levels) > 1
        ties[symmetric] += sum(len(level) > 1 for level in levels)
        unbudgeted = _reference_best_logical(inst, lsps, plane, excluded, {}, forbidden)
        interface_bound += len(unbudgeted) > len(want)
    # the cases reach past the cost optimum, equal costs tie within a level
    # (symmetric demands included) and the interface budget binds
    assert several_levels > 0
    assert ties[False] > 0 and ties[True] > 0
    assert interface_bound > 0


def test_best_logical_fractional_costs_and_loads():
    """CR2 and CR3 make c_tt·b fractional; 2.5 + 3.5 + 4 fills C exactly."""
    topo = PhysicalTopology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    for label in ("CR1", "CR2", "CR3"):
        inst = make_instance(topo, [(0, 2, 2.5), (0, 2, 3.5), (0, 2, 4)],
                             ratios=COST_RATIO_PRESETS[label])
        levels = _levels(inst, inst.traffic, WORKING, {}, {}, ())
        got = [entry for level in levels for entry in level]
        assert got == _reference_best_logical(inst, inst.traffic, WORKING, {}, {}, ())
        assert got[0][3] == {lsp.id: (0, 2) for lsp in inst.traffic}
        assert got[0][0] == inst.unit_costs.c_lp


def _reading(levels, read):
    """Pass ``levels`` on, recording each level as it is read."""
    for level in levels:
        read.append(level)
        yield level


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
    levels = _levels(inst, inst.traffic, PROTECTION, {}, {}, ())
    logical = [entry for level in levels for entry in level]
    assert logical[0][3] == {a: (0, 2), b: (0, 2)}
    phys_links = {a: frozenset({(0, 1)}), b: frozenset({(0, 3)})}
    context = ProtectionContext(inst.traffic, {}, ExclusionSets(lsp_links=phys_links))
    read = []
    picked = _pick_integrated(
        inst, _reading(_logical_levels(inst, inst.traffic, PROTECTION, {}, {}, ()), read),
        PROTECTION, context)
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
    # the pick read the two cheaper levels and its own, and no level past it
    assert read == levels[:3]
    assert len(levels) > 3
    # every placed lightpath avoids the links excluded for the LSPs it carries
    for (i, j, _q), walk in pair_routes.items():
        links = {normalize_link(m, n) for m, n in zip(walk, walk[1:])}
        for k, path in routes_logical.items():
            if (i, j) in {normalize_link(m, n) for m, n in zip(path, path[1:])}:
                assert not links & phys_links[k]
    # without the exclusions the cost optimum itself is placed, from the
    # first level alone
    read = []
    unblocked, _ = _pick_integrated(
        inst, _reading(_logical_levels(inst, inst.traffic, PROTECTION, {}, {}, ()), read),
        PROTECTION, ProtectionContext(inst.traffic, {}, ExclusionSets()))
    assert unblocked == logical[0][3]
    assert read == levels[:1]


def test_pick_integrated_nothing_placeable():
    """With both links at node 0 already full no lightpath can leave it, so no
    routing at any cost level can be placed."""
    topo = PhysicalTopology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)], W=1)
    inst = make_instance(topo, [(0, 2, 4), (0, 2, 3.5)],
                         SurvivabilityMode.SINGLE_LAYER, Approach.INTEGRATED)
    levels = _logical_levels(inst, inst.traffic, PROTECTION, {}, {}, ())
    full = {(0, 1): 1, (0, 3): 1}
    assert _pick_integrated(inst, levels, PROTECTION, ProtectionContext(
        inst.traffic, {}, ExclusionSets(), wavelengths_used=full)) is None
