"""Brute-force optimum for small instances: the planner's survivability
pipeline with every phase solved by enumeration instead of a MILP.

Each phase searches the logical routings, lightpath placements or physical
routings by plain graph search, scores them exactly in integers and keeps
the phase optimum.  Both searches are depth-first with exact bounds.  The
logical one cuts a branch only when its cost bound lies strictly above the
best found, so every routing of optimal cost is kept for the tie-break and
the rest are never scored; it yields one cost level at a time, cheapest
first.  Logical costs are integer multiples of a common denominator of the
bandwidths, capacity and unit costs, from per-path terms computed once per
phase rather than once per combination; each level's cost is an exact
``Fraction``.  The physical one bounds the whole (hops, tie1, tie2) key.  No
MILP machinery is involved: feasibility (capacities, interface budgets,
wavelength budgets, exclusions) is checked natively on the enumerated
routes.  Equal-cost ties fall to the same deterministic name-weight scores
the planner uses, so at gap 0 the two must produce identical
configurations.  The step order between the phases is the planner's own
(``planner._run_pipeline``), so the oracle checks that each phase is solved
optimally; ``verify`` checks restorability and disjointness independently
of both.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import naming
from .formulation import (PROTECTION, WORKING, ExclusionSets, Lightpath,
                          ProblemInstance, ProtectionContext,
                          spare_carrier_exclusions)
from .modes import Approach
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


def _simple_paths(graph: PhysicalTopology, s: Node, d: Node,
                  banned_nodes: frozenset[Node] = frozenset(),
                  banned_links: frozenset[Link] = frozenset()
                  ) -> list[tuple[Node, ...]]:
    if s in banned_nodes or d in banned_nodes:
        return []
    out: list[tuple[Node, ...]] = []
    stack: list[tuple[Node, tuple[Node, ...]]] = [(s, (s,))]
    while stack:
        cur, path = stack.pop()
        for nxt in graph.neighbors(cur):
            if nxt in banned_nodes or nxt in path:
                continue
            if normalize_link(cur, nxt) in banned_links:
                continue
            if nxt == d:
                out.append(path + (nxt,))
            else:
                stack.append((nxt, path + (nxt,)))
    return out


def _hop_pairs(path: Sequence[Node]) -> list[Link]:
    return [normalize_link(a, b) for a, b in zip(path, path[1:])]


def _path_ties(paths: Sequence[Sequence[Node]], name_of: Callable[[Node, Node], str]
               ) -> list[tuple[int, int]]:
    """Both tie scores of each path: the sums of its hop names' weights.  Each
    distinct hop is named and hashed once."""
    weights: dict[tuple[Node, Node], tuple[int, int]] = {}
    out = []
    for path in paths:
        w1 = w2 = 0
        for hop in zip(path, path[1:]):
            w = weights.get(hop)
            if w is None:
                name = name_of(*hop)
                w = weights[hop] = (naming.tie_weight(name, 1), naming.tie_weight(name, 2))
            w1 += w[0]
            w2 += w[1]
        out.append((w1, w2))
    return out


# ---------------------------------------------------------------------------
# logical phase enumeration

def _logical_levels(instance: ProblemInstance, lsps: Sequence, plane: str,
                    excluded_nodes: Mapping[int, frozenset[Node]],
                    interface_used: Mapping[Node, int],
                    forbidden: Sequence[tuple[tuple[int, Node, Node, int], ...]],
                    ) -> Iterator[list[tuple[Fraction, int, int, dict[int, tuple[Node, ...]]]]]:
    """The feasible logical routings one cost level at a time, cheapest first:
    each level lists every routing of that cost as (cost, tie1, tie2, routes).

    Scores follow the phase model exactly: transit cost over protected
    bandwidth plus lightpath cost, then the name-weight tie scores over the
    active existence and routing entities.  Loads are compared and costs
    summed as integer multiples of a common denominator (of the bandwidths
    and ``C``, and of ``c_lp`` and every ``c_tt·b``), so the checks and the
    order are exact; each level's cost is one ``Fraction``.

    Each level is a depth-first search over the LSPs in order, each LSP's
    candidate paths cheapest transit first, with loads and interface counts
    kept incrementally.  A branch is cut only when its bound, the lightpaths
    opened so far plus the transit so far plus each remaining LSP's cheapest
    transit, lies strictly above the cheapest complete cost found, so every
    routing of equal cost is kept for the tie-break.  The next level is the
    same search restricted to costs above the last.  A level is sorted by
    (tie1, tie2), then in ``itertools.product`` order over the path-sorted
    candidates: the order a stable sort of the whole enumeration gives.
    """
    topo = instance.topology
    params = instance.params
    uc = instance.unit_costs
    mesh = PhysicalTopology(topo.nodes, itertools.combinations(sorted(topo.nodes), 2))

    load_den = math.lcm(params.C.denominator,
                        *(lsp.bandwidth.denominator for lsp in lsps))
    capacity = int(params.C * load_den)
    transit = [uc.c_tt * lsp.bandwidth for lsp in lsps]
    cost_den = math.lcm(uc.c_lp.denominator, *(t.denominator for t in transit))
    c_lp = int(uc.c_lp * cost_den)

    # per LSP, cheapest transit first:
    # (transit cost, index in path order, path, hop pairs, hop-pair set, tie1, tie2)
    per_lsp: list[list[tuple]] = []
    for lsp, unit_transit in zip(lsps, transit):
        paths = sorted(_simple_paths(mesh, lsp.source, lsp.destination,
                                     excluded_nodes.get(lsp.id, frozenset())))
        if not paths:
            return
        hop_cost = int(unit_transit * cost_den)
        ties = _path_ties(paths, lambda a, b, k=lsp.id: naming.delta(plane, k, a, b, 1))
        cands = []
        for index, (path, (w1, w2)) in enumerate(zip(paths, ties)):
            hops = _hop_pairs(path)
            cands.append((hop_cost * (len(path) - 2), index, path, hops, frozenset(hops),
                          w1, w2))
        cands.sort(key=lambda cand: cand[0])
        per_lsp.append(cands)
    pair_ties = {pair: (naming.tie_weight(naming.beta(plane, *pair, 1), 1),
                        naming.tie_weight(naming.beta(plane, *pair, 1), 2))
                 for pair in itertools.combinations(sorted(topo.nodes), 2)}
    loads = [int(lsp.bandwidth * load_den) for lsp in lsps]
    ids = [lsp.id for lsp in lsps]
    room = {n: params.T - interface_used.get(n, 0) for n in topo.nodes}
    n_lsps = len(lsps)
    rest = [0] * (n_lsps + 1)  # the cheapest transit of the LSPs from idx on
    for idx in range(n_lsps - 1, -1, -1):
        rest[idx] = rest[idx + 1] + per_lsp[idx][0][0]

    load: dict[Link, int] = {}
    iface = dict.fromkeys(topo.nodes, 0)
    chosen: list[tuple] = [()] * n_lsps
    floor: int | None = None
    best: int | None = None
    found: list = []

    def descend(idx: int, spent: int) -> None:
        nonlocal best, found
        base = c_lp * len(load) + spent
        if best is not None and base + rest[idx] > best:
            return
        if idx == n_lsps:
            if floor is not None and base <= floor:
                return
            if forbidden:
                routes_pairs = {k: cand[4] for k, cand in zip(ids, chosen)}
                if any(all((i, j) in routes_pairs.get(k, ()) for (k, i, j, _q) in grouping)
                       for grouping in forbidden):
                    return
            if best is None or base < best:
                best, found = base, []
            tie1 = tie2 = 0
            for pair in load:
                w1, w2 = pair_ties[pair]
                tie1 += w1
                tie2 += w2
            for cand in chosen:
                tie1 += cand[5]
                tie2 += cand[6]
            found.append((tie1, tie2, tuple(cand[1] for cand in chosen),
                          {k: cand[2] for k, cand in zip(ids, chosen)}))
            return
        bw = loads[idx]
        for cand in per_lsp[idx]:
            # later candidates transit no less, and no candidate closes a lightpath
            if best is not None and base + cand[0] + rest[idx + 1] > best:
                break
            hops = cand[3]
            if any(load.get(pair, 0) + bw > capacity for pair in hops):
                continue
            opened = [pair for pair in hops if pair not in load]
            for a, b in opened:
                iface[a] += 1
                iface[b] += 1
            if all(iface[a] <= room[a] and iface[b] <= room[b] for a, b in opened):
                for pair in hops:
                    load[pair] = load.get(pair, 0) + bw
                chosen[idx] = cand
                descend(idx + 1, spent + cand[0])
                for pair in hops:
                    load[pair] -= bw
                for pair in opened:
                    del load[pair]
            for a, b in opened:
                iface[a] -= 1
                iface[b] -= 1

    try:
        while True:
            best, found = None, []
            descend(0, 0)
            if best is None:
                return
            found.sort(key=lambda r: r[:3])
            cost = Fraction(best, cost_den)
            yield [(cost, tie1, tie2, routes) for tie1, tie2, _order, routes in found]
            floor = best
    finally:
        # the recursive closure refers to itself: break the cycle, so that the
        # search state goes when the generator does, not at a later collection
        del descend


# ---------------------------------------------------------------------------
# physical routing enumeration

def _route_entities(topology: PhysicalTopology,
                    entities: Sequence[tuple[int, Node, Node]],
                    name_fn: Callable[[int, Node, Node], str],
                    used: Mapping[Link, int],
                    exclusions: ExclusionSets | None = None,
                    ) -> tuple[dict[int, tuple[Node, ...]], tuple[int, int, int]] | None:
    """Jointly route entities over physical links minimizing
    (total hops, tie1, tie2) under the per-link wavelength budget, each
    avoiding its ``exclusions`` lightpath sets (keyed by entity id).
    Returns None when some entity has no admissible path or budgets bind."""
    exclusions = exclusions or ExclusionSets()
    cands: list[list[tuple[int, int, int, tuple[Node, ...]]]] = []
    for (eid, i, j) in entities:
        paths = _simple_paths(topology, i, j,
                              exclusions.lightpath_nodes.get(eid, frozenset()),
                              exclusions.lightpath_links.get(eid, frozenset()))
        if not paths:
            return None
        ties = _path_ties(paths, lambda a, b, eid=eid: name_fn(eid, a, b))
        scored = [(len(p) - 1, w1, w2, p) for p, (w1, w2) in zip(paths, ties)]
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
    del dfs  # break the recursive closure's cycle, as in _logical_levels
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

    def logical(self, label: str, plane: str, context: ProtectionContext | None = None):
        inst = self.instance
        what = "logical" if plane == WORKING else "protection"
        ctx = context or ProtectionContext(inst.traffic, {}, ExclusionSets())
        levels = _logical_levels(inst, ctx.protected, plane, ctx.exclusions.lsp_nodes,
                                 ctx.interface_usage, ctx.forbidden_groupings)
        first = next(levels, None)
        if first is None:
            raise PlanError(label, f"no feasible {what} routing")
        if inst.approach is Approach.INTEGRATED:
            picked = _pick_integrated(inst, itertools.chain([first], levels), plane, context)
            if picked is None:
                raise PlanError(label, f"no routable {what} optimum")
            routes_logical, pair_routes = picked
        else:
            _cost, _f1, _f2, routes_logical = first[0]
            pair_routes = {}
        hops = {k: tuple((i, j, 1) for (i, j) in _hop_pairs(path))
                for k, path in routes_logical.items()}
        pairs = sorted({pair for h in hops.values() for pair in h})
        return pairs, hops, routes_logical, pair_routes

    def route(self, label: str, lightpaths: Sequence[Lightpath], *,
              protection: bool = False, exclusions: ExclusionSets | None = None,
              wavelengths_used=None) -> dict[int, tuple[Node, ...]]:
        plane = PROTECTION if protection else WORKING
        routed = _route_entities(
            self.instance.topology, [(lp.id, lp.i, lp.j) for lp in lightpaths],
            lambda lp_id, m, n: naming.lam(plane, lp_id, m, n), wavelengths_used or {},
            exclusions)
        if routed is None:
            raise PlanError(label, "no feasible physical routing")
        return routed[0]


def brute_force_optimum(instance: ProblemInstance) -> tuple[Fraction, NetworkConfiguration]:
    """Exhaustively enumerate the mode's pipeline and return (optimal cost,
    one optimal configuration).  Bounds: N <= 5, K <= 3, Q = 1."""
    _check_bounds(instance)
    config = _run_pipeline(instance, _EnumerationPhases(instance))
    return config.cost.total, config


def _pick_integrated(instance: ProblemInstance,
                     levels: Iterable[list[tuple[Fraction, int, int,
                                                 dict[int, tuple[Node, ...]]]]],
                     plane: str,
                     context: ProtectionContext | None
                     ) -> tuple[dict[int, tuple[Node, ...]],
                                dict[tuple[Node, Node, int], tuple[Node, ...]]] | None:
    """Among the logical routings of the cheapest cost level that can be
    placed, pick the one whose joint physical placement minimizes
    (wavelengths, tie1, tie2) — the enumeration twin of solving the two-layer
    model MPLS terms first.  ``levels`` are read only until such a level is
    found.  On the protection plane each carrier avoids what
    ``spare_carrier_exclusions`` derives from the context's exclusions for
    its passengers, the rule the planner's model states as ``exc`` rows, and
    the context's wavelengths are held."""
    topo = instance.topology
    for level in levels:
        best_key = None
        best_pick = None
        for (_cost, f1_log, f2_log, routes_logical) in level:
            pairs = sorted({(i, j, 1) for path in routes_logical.values()
                            for (i, j) in _hop_pairs(path)})
            used: Mapping[Link, int] = {}
            excl = None
            if context is not None:
                used = context.wavelengths_used
                carriers: dict[tuple[Node, Node, int], list[int]] = {}
                for k, path in sorted(routes_logical.items()):
                    for (a, b) in _hop_pairs(path):
                        carriers.setdefault((a, b, 1), []).append(k)
                excl = spare_carrier_exclusions(context.exclusions, carriers)

            entities = [(pair, pair[0], pair[1]) for pair in pairs]
            routed = _route_entities(
                topo, entities,
                lambda pair, m, n: naming.lam_integrated(plane, *pair, m, n),
                used, excl)
            if routed is None:
                continue
            routes_by_pair, (hops, f1_r, f2_r) = routed
            key = (hops, f1_log + f1_r, f2_log + f2_r)
            if best_key is None or key < best_key:
                best_key = key
                best_pick = (routes_logical, dict(routes_by_pair))
        if best_pick is not None:
            return best_pick
    return None
