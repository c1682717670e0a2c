"""Brute-force optimum for small instances: the planner's survivability
pipeline with every phase solved by enumeration instead of a MILP.

Each phase enumerates every logical routing, lightpath placement or physical
routing by plain graph search, scores it exactly in integers and keeps the
phase optimum.  Logical routings are scored as integer multiples of a common
denominator of the bandwidths, capacity and unit costs, from per-path terms
computed once per phase rather than once per combination; the returned costs
are still exact ``Fraction``s.  No MILP machinery is involved: feasibility
(capacities, interface budgets, wavelength budgets, exclusions) is checked
natively on the enumerated routes.  Equal-cost ties fall to the same
deterministic name-weight scores the planner uses, so at gap 0 the two must
produce identical configurations.  The step order between the phases is the
planner's own (``planner._run_pipeline``), so the oracle checks that each
phase is solved optimally; ``verify`` checks restorability and disjointness
independently of both.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import naming
from .formulation import (WORKING, ExclusionSets, Lightpath, ProblemInstance,
                          ProtectionContext)
from .modes import Approach, SurvivabilityMode
from .netmodel import Link, Node, PhysicalTopology, normalize_link
from .planner import NetworkConfiguration, PlanError, _run_pipeline

__all__ = ["brute_force_optimum", "OracleBoundsError"]

MAX_NODES = 5
MAX_LSPS = 3


class OracleBoundsError(ValueError):
    """Instance exceeds the documented enumeration bounds."""


def _check_bounds(instance: ProblemInstance) -> None:
    if instance.topology.n > MAX_NODES or len(instance.traffic) > MAX_LSPS \
            or instance.params.Q != 1:
        raise OracleBoundsError(
            f"brute force handles N <= {MAX_NODES}, K <= {MAX_LSPS}, Q = 1; got "
            f"N={instance.topology.n}, K={len(instance.traffic)}, Q={instance.params.Q}")


def _simple_paths(neighbors: Mapping[Node, Sequence[Node]], s: Node, d: Node,
                  banned_nodes: frozenset[Node] = frozenset(),
                  banned_links: frozenset[Link] = frozenset()
                  ) -> list[tuple[Node, ...]]:
    if s in banned_nodes or d in banned_nodes:
        return []
    out: list[tuple[Node, ...]] = []
    stack: list[tuple[Node, tuple[Node, ...]]] = [(s, (s,))]
    while stack:
        cur, path = stack.pop()
        for nxt in neighbors.get(cur, ()):
            if nxt in banned_nodes or nxt in path:
                continue
            if normalize_link(cur, nxt) in banned_links:
                continue
            if nxt == d:
                out.append(path + (nxt,))
            else:
                stack.append((nxt, path + (nxt,)))
    return out


def _complete_neighbors(nodes: Sequence[Node]) -> dict[Node, tuple[Node, ...]]:
    s = sorted(nodes)
    return {v: tuple(w for w in s if w != v) for v in s}


def _topo_neighbors(topology: PhysicalTopology) -> dict[Node, tuple[Node, ...]]:
    return {v: topology.neighbors(v) for v in topology.nodes}


def _hop_pairs(path: Sequence[Node]) -> list[Link]:
    return [normalize_link(a, b) for a, b in zip(path, path[1:])]


# ---------------------------------------------------------------------------
# logical phase enumeration

def _best_logical(instance: ProblemInstance, lsps: Sequence, plane: str,
                  excluded_nodes: Mapping[int, frozenset[Node]],
                  interface_used: Mapping[Node, int],
                  forbidden: Sequence[tuple[tuple[int, Node, Node, int], ...]],
                  ) -> list[tuple[Fraction, int, int, dict[int, tuple[Node, ...]]]]:
    """All feasible logical routings scored (cost, tie1, tie2), sorted.

    Scores follow the phase model exactly: transit cost over protected
    bandwidth plus lightpath cost, then the name-weight tie scores over the
    active existence and routing entities.  Everything that does not depend
    on the combination is computed once per call: per candidate path its hop
    pairs, transit cost and routing tie weights, per logical pair its
    existence tie weights.  Loads are compared and costs summed as integer
    multiples of a common denominator (of the bandwidths and ``C``, and of
    ``c_lp`` and every ``c_tt·b``), so the check and the order are exact; each
    distinct cost becomes one ``Fraction`` on return.  Routings come in
    ``itertools.product`` order before the stable sort, and the whole list is
    kept because ``_pick_integrated`` may need a routing past the cost optimum.
    """
    topo = instance.topology
    params = instance.params
    uc = instance.unit_costs
    beta_name = naming.wbeta if plane == WORKING else naming.pbeta
    delta_name = naming.wdelta if plane == WORKING else naming.pdelta
    neighbors = _complete_neighbors(topo.nodes)

    load_den = math.lcm(params.C.denominator,
                        *(lsp.bandwidth.denominator for lsp in lsps))
    capacity = int(params.C * load_den)
    transit = [uc.c_tt * lsp.bandwidth for lsp in lsps]
    cost_den = math.lcm(uc.c_lp.denominator, *(t.denominator for t in transit))
    c_lp = int(uc.c_lp * cost_den)

    # per LSP: (path, hop pairs, hop-pair set, transit cost, tie1, tie2)
    per_lsp: list[list[tuple]] = []
    for lsp, unit_transit in zip(lsps, transit):
        paths = _simple_paths(neighbors, lsp.source, lsp.destination,
                              excluded_nodes.get(lsp.id, frozenset()))
        if not paths:
            return []
        hop_cost = int(unit_transit * cost_den)
        cands = []
        for path in sorted(paths):
            hops = _hop_pairs(path)
            names = [delta_name(lsp.id, a, b, 1) for a, b in zip(path, path[1:])]
            cands.append((path, hops, frozenset(hops), hop_cost * (len(path) - 2),
                          naming.tie_score(names, 1), naming.tie_score(names, 2)))
        per_lsp.append(cands)
    pair_ties = {pair: (naming.tie_weight(beta_name(*pair, 1), 1),
                        naming.tie_weight(beta_name(*pair, 1), 2))
                 for pair in itertools.combinations(sorted(topo.nodes), 2)}
    loads = [int(lsp.bandwidth * load_den) for lsp in lsps]
    ids = [lsp.id for lsp in lsps]

    scored: list = []
    for combo in itertools.product(*per_lsp):
        load: dict[Link, int] = {}
        ok = True
        for bw, cand in zip(loads, combo):
            for pair in cand[1]:
                total = load.get(pair, 0) + bw
                if total > capacity:
                    ok = False
                    break
                load[pair] = total
            if not ok:
                break
        if not ok:
            continue
        iface: dict[Node, int] = {}
        for (a, b) in load:
            iface[a] = iface.get(a, 0) + 1
            iface[b] = iface.get(b, 0) + 1
        if any(cnt + interface_used.get(n, 0) > params.T for n, cnt in iface.items()):
            continue
        if forbidden:
            routes_pairs = {k: cand[2] for k, cand in zip(ids, combo)}
            if any(all((i, j) in routes_pairs.get(k, ()) for (k, i, j, _q) in grouping)
                   for grouping in forbidden):
                continue
        cost = c_lp * len(load)
        tie1 = tie2 = 0
        for pair in load:
            w1, w2 = pair_ties[pair]
            tie1 += w1
            tie2 += w2
        for _path, _hops, _pair_set, transit_cost, w1, w2 in combo:
            cost += transit_cost
            tie1 += w1
            tie2 += w2
        scored.append((cost, tie1, tie2, combo))
    scored.sort(key=lambda r: (r[0], r[1], r[2]))
    # entries are replaced in place, so the integer-scored list and the
    # returned one never both exist in full
    costs = {cost: Fraction(cost, cost_den) for cost in {r[0] for r in scored}}
    for idx, (cost, tie1, tie2, combo) in enumerate(scored):
        scored[idx] = (costs[cost], tie1, tie2,
                       {k: cand[0] for k, cand in zip(ids, combo)})
    return scored


# ---------------------------------------------------------------------------
# physical routing enumeration

def _route_entities(topology: PhysicalTopology,
                    entities: Sequence[tuple[int, Node, Node]],
                    name_fn: Callable[[int, Node, Node], str],
                    used: Mapping[Link, int],
                    excl_nodes: Mapping[int, frozenset[Node]] | None = None,
                    excl_links: Mapping[int, frozenset[Link]] | None = None,
                    ) -> tuple[dict[int, tuple[Node, ...]], tuple[int, int, int]] | None:
    """Jointly route entities over physical links minimizing
    (total hops, tie1, tie2) under the per-link wavelength budget.
    Returns None when some entity has no admissible path or budgets bind."""
    excl_nodes = excl_nodes or {}
    excl_links = excl_links or {}
    neighbors = _topo_neighbors(topology)
    cands: list[list[tuple[int, int, int, tuple[Node, ...]]]] = []
    for (eid, i, j) in entities:
        paths = _simple_paths(neighbors, i, j,
                              excl_nodes.get(eid, frozenset()),
                              excl_links.get(eid, frozenset()))
        scored = []
        for p in paths:
            names = [name_fn(eid, a, b) for a, b in zip(p, p[1:])]
            scored.append((len(p) - 1, naming.tie_score(names, 1),
                           naming.tie_score(names, 2), p))
        if not scored:
            return None
        scored.sort()
        cands.append(scored)

    n_e = len(entities)
    suffix = [(0, 0, 0)] * (n_e + 1)
    for idx in range(n_e - 1, -1, -1):
        nxt = suffix[idx + 1]
        suffix[idx] = (nxt[0] + min(c[0] for c in cands[idx]),
                       nxt[1] + min(c[1] for c in cands[idx]),
                       nxt[2] + min(c[2] for c in cands[idx]))

    best: tuple[int, int, int] | None = None
    best_routes: dict[int, tuple[Node, ...]] | None = None
    usage = dict(used)
    chosen: dict[int, tuple[Node, ...]] = {}
    limit = topology.W

    def dfs(idx: int, acc: tuple[int, int, int]) -> None:
        nonlocal best, best_routes
        bound = (acc[0] + suffix[idx][0], acc[1] + suffix[idx][1],
                 acc[2] + suffix[idx][2])
        if best is not None and bound >= best:
            return
        if idx == n_e:
            best = acc
            best_routes = dict(chosen)
            return
        eid, _i, _j = entities[idx]
        for (hops, f1, f2, path) in cands[idx]:
            links = _hop_pairs(path)
            if any(usage.get(l, 0) + 1 > limit for l in links):
                continue
            for l in links:
                usage[l] = usage.get(l, 0) + 1
            chosen[eid] = path
            dfs(idx + 1, (acc[0] + hops, acc[1] + f1, acc[2] + f2))
            for l in links:
                usage[l] -= 1
            del chosen[eid]

    dfs(0, (0, 0, 0))
    if best_routes is None:
        return None
    return best_routes, best


# ---------------------------------------------------------------------------
# the pipeline, by enumeration

class _EnumerationPhases:
    """Phase solver of ``brute_force_optimum``: each phase by enumeration."""

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.records: dict = {}  # enumeration keeps no solver statistics

    def logical(self, label: str, plane: str, lsps: Sequence,
                context: ProtectionContext | None = None, *,
                lsp_excluded_phys_nodes=None, lsp_excluded_links=None,
                wavelengths_used=None):
        inst = self.instance
        what = "logical" if plane == WORKING else "protection"
        if context is None:
            logical = _best_logical(inst, lsps, plane, {}, {}, ())
        else:
            logical = _best_logical(inst, lsps, plane, context.excluded_nodes,
                                    context.interface_usage,
                                    context.forbidden_groupings)
        if not logical:
            raise PlanError(label, f"no feasible {what} routing")
        if inst.approach is Approach.INTEGRATED:
            protection_ctx = None if plane == WORKING else (
                lsp_excluded_phys_nodes, lsp_excluded_links, wavelengths_used)
            picked = _pick_integrated(inst, logical, plane, protection_ctx)
            if picked is None:
                raise PlanError(label, f"no routable {what} optimum")
            routes_logical, pair_routes = picked
        else:
            _cost, _f1, _f2, routes_logical = logical[0]
            pair_routes = {}
        hops = {k: tuple((i, j, 1) for (i, j) in _hop_pairs(path))
                for k, path in routes_logical.items()}
        pairs = sorted({pair for h in hops.values() for pair in h})
        return pairs, hops, routes_logical, pair_routes

    def route(self, label: str, lightpaths: Sequence[Lightpath], *,
              protection: bool = False, exclusions: ExclusionSets | None = None,
              working_links=None, forbidden_links=None, wavelengths_used=None
              ) -> dict[int, tuple[Node, ...]]:
        excl = exclusions or ExclusionSets()
        banned = {lp.id: excl.lightpath_links.get(lp.id, frozenset())
                  | (working_links or {}).get(lp.id, frozenset())
                  | (forbidden_links or {}).get(lp.id, frozenset())
                  for lp in lightpaths}
        routed = _route_entities(
            self.instance.topology, [(lp.id, lp.i, lp.j) for lp in lightpaths],
            naming.plam if protection else naming.wlam, wavelengths_used or {},
            excl_nodes=excl.lightpath_nodes, excl_links=banned)
        if routed is None:
            raise PlanError(label, "no feasible physical routing")
        return routed[0]


def brute_force_optimum(instance: ProblemInstance,
                        mode: SurvivabilityMode | None = None
                        ) -> tuple[Fraction, NetworkConfiguration]:
    """Exhaustively enumerate the mode's pipeline and return (optimal cost,
    one optimal configuration).  Bounds: N <= 5, K <= 3, Q = 1."""
    inst = instance if mode is None or mode is instance.mode else instance.with_mode(mode)
    _check_bounds(inst)
    config = _run_pipeline(inst, _EnumerationPhases(inst))
    return config.cost.total, config


def _pick_integrated(instance: ProblemInstance,
                     logical: list[tuple[Fraction, int, int, dict[int, tuple[Node, ...]]]],
                     phase: str,
                     protection_ctx) -> tuple[dict[int, tuple[Node, ...]],
                                              dict[tuple[Node, Node, int], tuple[Node, ...]]] | None:
    """Among MPLS-cost-optimal logical routings, pick the one whose joint
    physical placement minimizes (wavelengths, tie1, tie2) — the enumeration
    twin of solving the two-layer model MPLS terms first."""
    topo = instance.topology
    best_key = None
    best_pick = None
    best_cost: Fraction | None = None
    for (cost, f1_log, f2_log, routes_logical) in logical:
        if best_cost is not None and cost > best_cost:
            break
        pairs = sorted({(i, j, 1) for path in routes_logical.values()
                        for (i, j) in _hop_pairs(path)})
        if phase == WORKING:
            name = naming.wlam_integrated
            used: Mapping[Link, int] = {}
            excl_nodes: dict[tuple, frozenset] = {}
            excl_links: dict[tuple, frozenset] = {}
        else:
            phys_nodes, phys_links, used = protection_ctx
            excl_nodes = {}
            excl_links = {}
            carriers: dict[tuple[Node, Node, int], list[int]] = {}
            for k, path in sorted(routes_logical.items()):
                for (a, b) in _hop_pairs(path):
                    carriers.setdefault((a, b, 1), []).append(k)
            for pair, ks in carriers.items():
                nodes_u: frozenset[Node] = frozenset()
                links_u: frozenset[Link] = frozenset()
                for k in ks:
                    nodes_u |= phys_nodes.get(k, frozenset())
                    links_u |= phys_links.get(k, frozenset())
                excl_nodes[pair] = nodes_u
                excl_links[pair] = links_u
            name = naming.plam_integrated

        entities = [(pair, pair[0], pair[1]) for pair in pairs]
        routed = _route_entities(
            topo, entities,
            lambda pair, m, n: name(pair[0], pair[1], pair[2], m, n),
            used, excl_nodes=excl_nodes, excl_links=excl_links)
        if routed is None:
            continue
        routes_by_pair, (hops, f1_r, f2_r) = routed
        key = (hops, f1_log + f1_r, f2_log + f2_r)
        if best_key is None or key < best_key:
            best_key = key
            best_pick = (routes_logical, dict(routes_by_pair))
            best_cost = cost
    return best_pick
