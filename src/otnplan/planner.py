"""Survivability pipelines: working/protection logical design, physical
routing, interlayer backup-resource sharing and cost evaluation.

Every optimization phase is solved hierarchically: the phase cost first, then
(at gap 0) two deterministic tie-break objectives over the active entity
names.  Ties between equal-cost optima are therefore resolved identically by
this planner and by the enumeration oracle, which makes "planner equals
brute force at gap 0" a well-defined statement.  At gap 0 a
lightpath-routing phase whose wavelength budgets are slack, and a sequential
logical-design phase with one LSP whose shortest route meets every row,
reach the same optimum by lexicographic shortest paths, without a search
(``_MilpPhases.route`` and ``_MilpPhases.logical``).  With
the integrated approach the working model carries both layers and is solved
MPLS terms first, wavelength term second, so the packet-layer resources
match the sequential result while the optical layer can only improve.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import naming
from .formulation import (PROTECTION, WORKING, ExclusionSets, Lightpath,
                          ProblemInstance, ProtectionContext, backup_exclusions,
                          build_integrated, build_lightpath_routing,
                          build_logical_design, compute_exclusion_sets,
                          expand_lightpaths, spare_carrier_exclusions)
from .milp import SOLVER_FAILURES, MilpModel, check_solution, solve_milp
from .modes import Approach, SurvivabilityMode
from .netmodel import (Link, LspDemand, Node, PhysicalTopology, UnitCosts,
                       normalize_link, reachable, route_links)

__all__ = [
    "PlanOptions",
    "PlanError",
    "PhaseRecord",
    "LspRoute",
    "ResourceCounts",
    "CostBreakdown",
    "NetworkConfiguration",
    "plan",
    "lightpath_overloads",
    "transit_traffic",
    "apply_brs_sharing",
    "total_cost",
    "assemble_configuration",
    "export_phase_models",
    "diagnose_lightpath_infeasibility",
]

MAX_GROUPING_RETRIES = 3
_PIN_EPS = 1e-6


class PlanError(RuntimeError):
    def __init__(self, phase: str, detail: str, retries: int = 0,
                 binding: Sequence[str] = ()):
        self.phase = phase
        self.detail = detail
        self.retries = retries
        self.binding = tuple(binding)
        text = f"phase {phase}: {detail}"
        if binding:
            text += f" (binding: {', '.join(self.binding)})"
        if retries:
            text += f" after {retries} retries"
        super().__init__(text)


@dataclass(frozen=True)
class PlanOptions:
    gap: float = 0.03
    time_limit: float = 300.0  # seconds per phase

    def __post_init__(self):
        if not self.gap >= 0:
            raise ValueError(f"gap must be a non-negative number, not {self.gap}")
        if not self.time_limit >= 0:
            raise ValueError(f"time limit must be a non-negative number of seconds, "
                             f"not {self.time_limit}")

    def exact(self) -> bool:
        return self.gap <= 0.0


@dataclass(frozen=True)
class PhaseRecord:
    name: str
    status: str
    objective: float
    best_bound: float
    gap: float
    nodes: int
    lp_iterations: int
    wall_time: float
    retries: int = 0


@dataclass(frozen=True)
class LspRoute:
    lsp_id: int
    working: tuple[int, ...]  # lightpath ids in path order
    protection: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ResourceCounts:
    transit_gbps: Fraction
    lightpaths: int
    wavelengths: int


@dataclass(frozen=True)
class CostBreakdown:
    transit: Fraction
    lightpath: Fraction
    optical: Fraction

    @property
    def total(self) -> Fraction:
        return self.transit + self.lightpath + self.optical


@dataclass
class NetworkConfiguration:
    """A fully solved two-layer configuration."""

    instance: ProblemInstance
    lightpaths: tuple[Lightpath, ...]
    lightpath_routes: dict[int, tuple[Node, ...]]
    protection_routes: dict[int, tuple[Node, ...]]  # optical backups, by lightpath id
    lsp_routes: dict[int, LspRoute]
    pair_working: dict[Link, int] = field(default_factory=dict)
    pair_spare: dict[Link, int] = field(default_factory=dict)
    link_working_w: dict[Link, int] = field(default_factory=dict)   # carrying wLSPs
    link_working_p: dict[Link, int] = field(default_factory=dict)   # carrying pLSPs
    link_spare: dict[Link, int] = field(default_factory=dict)       # protection lightpaths
    link_total: dict[Link, int] = field(default_factory=dict)
    transit: dict[Node, Fraction] = field(default_factory=dict)
    extra_wavelengths: int = 0
    reuse_factor: Fraction | None = None
    cost: CostBreakdown | None = None
    phases: tuple[PhaseRecord, ...] = ()

    @property
    def mode(self) -> SurvivabilityMode:
        return self.instance.mode

    @cached_property
    def _lsp_index(self) -> dict:
        return {lsp.id: lsp for lsp in self.instance.traffic}

    def lsp_by_id(self, lsp_id: int):
        return self._lsp_index[lsp_id]

    def counts(self) -> ResourceCounts:
        return ResourceCounts(
            transit_gbps=sum(self.transit.values(), Fraction(0)),
            lightpaths=len(self.lightpaths),
            wavelengths=sum(self.link_total.values()),
        )

    def protection_carrying_lightpaths(self) -> int:
        return sum(1 for lp in self.lightpaths if lp.status == PROTECTION)

    def lsp_logical_nodes(self, lsp_id: int, side: str = "working") -> tuple[Node, ...]:
        """Node sequence of an LSP's logical route (lightpath endpoints)."""
        route = self.lsp_routes[lsp_id]
        lp_ids = route.working if side == "working" else (route.protection or ())
        seq = [self.lsp_by_id(lsp_id).source]
        for lp_id in lp_ids:
            lp = self.lightpaths[lp_id]
            seq.append(lp.j if seq[-1] == lp.i else lp.i)
        return tuple(seq)

    def lsp_physical_walk(self, lsp_id: int, side: str = "working") -> tuple[Node, ...]:
        """Physical node walk of an LSP path: its lightpaths' routes chained."""
        route = self.lsp_routes[lsp_id]
        lp_ids = route.working if side == "working" else (route.protection or ())
        walk: list[Node] = [self.lsp_by_id(lsp_id).source]
        for lp_id in lp_ids:
            seg = list(self.lightpath_routes[lp_id])
            if seg[0] != walk[-1]:
                seg.reverse()
            walk.extend(seg[1:])
        return tuple(walk)


def _decode_walks(family: Mapping[tuple, int], values: Mapping[int, float],
                  ends: Mapping[object, tuple[Node, Node]], limit: int,
                  label: str) -> dict[object, tuple[tuple[Node, ...], tuple]]:
    """Each entity's walk from its source to its destination over the active
    arcs of one routing family, smallest next hop first, with the hop key of
    every arc taken; trailing cycles in the flow are dropped.

    ``family`` is a ``DecisionVarMap`` routing map: ``delta``, keyed
    (k, i, j, q), where entity k's hops are the logical pairs (min, max, q),
    or ``lam``, keyed by the entity then the physical arc, (lp, m, n) or
    (i, j, q, m, n), whose hops are the links.
    """
    active: dict[object, dict[Node, list[tuple[Node, tuple]]]] = {}
    for key, vid in family.items():
        if values.get(vid, 0.0) < 0.5:
            continue
        if len(key) == 4:
            entity, i, j, q = key
            hop = normalize_link(i, j) + (q,)
        else:
            entity = key[0] if len(key) == 3 else key[:3]
            i, j = key[-2:]
            hop = normalize_link(i, j)
        active.setdefault(entity, {}).setdefault(i, []).append((j, hop))
    walks = {}
    for entity, (s, d) in ends.items():
        arcs = active.get(entity, {})
        for lst in arcs.values():
            lst.sort()
        path, hops = [s], []
        while path[-1] != d:
            if not arcs.get(path[-1]):
                raise PlanError(label, f"route extraction stuck at node {path[-1]}")
            nxt, hop = arcs[path[-1]].pop(0)
            path.append(nxt)
            hops.append(hop)
            if len(hops) > limit:
                raise PlanError(label, "route extraction exceeded hop limit")
        walks[entity] = (tuple(path), tuple(hops))
    return walks


def _shortest_paths(model: MilpModel, arcs: Mapping[object, Mapping[Node, Sequence[tuple]]],
                    ends: Mapping[object, tuple[Node, Node]]) -> dict[int, float] | None:
    """Each entity's lexicographically shortest path from its source to its
    target, ``ends[entity]``, by Dijkstra on the key (cost, tie 1, tie 2).
    ``arcs[entity][m]`` lists each arc out of m as (its head, the ids of the
    columns it takes), and an arc's key sums over those columns their cost
    in ``model`` and the two tie weights of their names: the numbers the
    search minimises stage by stage.  The sums are compared exactly.
    Returns 1.0 for every column taken, or None when a target cannot be
    reached."""
    names, costs = model.names, model.objective
    values: dict[int, float] = {}
    for entity, (source, target) in ends.items():
        out = arcs.get(entity, {})
        best: dict[Node, tuple] = {source: (0.0, 0, 0)}
        via: dict[Node, tuple[Node, tuple]] = {}
        heap = [(0.0, 0, 0, source)]
        while heap:
            cost, tie1, tie2, m = heapq.heappop(heap)
            if m == target:
                break
            if (cost, tie1, tie2) > best[m]:
                continue  # m was reached by a shorter path since
            for n, ids in out.get(m, ()):
                key = (cost, tie1, tie2)
                for vid in ids:
                    key = (key[0] + costs[vid], key[1] + naming.tie_weight(names[vid], 1),
                           key[2] + naming.tie_weight(names[vid], 2))
                if n not in best or key < best[n]:
                    best[n] = key
                    via[n] = (m, ids)
                    heapq.heappush(heap, (*key, n))
        else:
            return None
        n = target
        while n != source:
            n, ids = via[n]
            values.update(dict.fromkeys(ids, 1.0))
    return values


def _shortest_routes(model: MilpModel, lam: Mapping[tuple, int],
                     lightpaths: Sequence[Lightpath]) -> dict[int, float] | None:
    """Each lightpath's lexicographically shortest route over its open
    ``lam`` columns (upper bound 1), one column per arc
    (``_shortest_paths``)."""
    arcs: dict[int, dict[Node, list[tuple[Node, tuple]]]] = {}
    for (lp_id, m, n), vid in lam.items():
        if model.upper[vid] == 1.0:
            arcs.setdefault(lp_id, {}).setdefault(m, []).append((n, (vid,)))
    return _shortest_paths(model, arcs, {lp.id: (lp.i, lp.j) for lp in lightpaths})


def _shortest_lsp_route(model: MilpModel, delta: Mapping[tuple, int],
                        beta: Mapping[tuple, int], lsp: LspDemand) -> dict[int, float] | None:
    """``lsp``'s lexicographically shortest logical route over its own open
    ``delta`` columns (upper bound 1): a hop (i -> j, q) takes its δ column
    and the β column of the lightpath (min, max, q) it crosses
    (``_shortest_paths``).  Other LSPs' δ columns are not arcs."""
    arcs: dict[Node, list[tuple[Node, tuple]]] = {}
    for (k, i, j, q), vid in delta.items():
        if k == lsp.id and model.upper[vid] == 1.0:
            arcs.setdefault(i, []).append((j, (vid, beta[normalize_link(i, j) + (q,)])))
    return _shortest_paths(model, {lsp.id: arcs}, {lsp.id: (lsp.source, lsp.destination)})


def _cut_off(lightpaths: Iterable[Lightpath], topology: PhysicalTopology,
             exclusions: ExclusionSets) -> list[Lightpath]:
    """The lightpaths whose exclusions cut their far end off, so that no
    route can take them."""
    return [lp for lp in lightpaths
            if lp.j not in reachable(topology, lp.i,
                                     exclusions.lightpath_nodes.get(lp.id, frozenset()),
                                     exclusions.lightpath_links.get(lp.id, frozenset()))]


def diagnose_lightpath_infeasibility(lightpaths: Sequence[Lightpath],
                                     topology: PhysicalTopology,
                                     unit_costs: UnitCosts,
                                     time_limit: float = 60.0,
                                     **routing_kwargs) -> tuple[str, ...]:
    """Explain an infeasible lightpath-routing phase within ``time_limit``
    seconds.

    A lightpath whose exclusions cut its far end off has no admissible
    route, and each such lightpath is named.  When there is none, the phase
    is re-solved with the wavelength budgets lifted, which then cannot be
    infeasible, and the binding links are those whose lifted usage exceeds
    the real budget.  Nothing is named when the time runs out first.
    """
    blocked = tuple(
        f"lightpath {lp.id} ({lp.i},{lp.j},q={lp.q}) has no admissible route"
        for lp in _cut_off(lightpaths, topology,
                           routing_kwargs.get("exclusions") or ExclusionSets()))
    if blocked:
        return blocked
    relaxed = PhysicalTopology(topology.nodes, topology.links, W=10 ** 6)
    model, varmap = build_lightpath_routing(list(lightpaths), relaxed, unit_costs,
                                            **routing_kwargs)
    sol = solve_milp(model, gap=0.0, time_limit=time_limit)
    if sol.status != "optimal":
        return ()
    usage: dict[Link, int] = {}
    for (_lp, m, n), vid in varmap.lam.items():
        if sol.value(vid) > 0.5:
            link = normalize_link(m, n)
            usage[link] = usage.get(link, 0) + 1
    used = routing_kwargs.get("wavelengths_used") or {}
    binding = []
    for link in sorted(usage):
        need = usage[link]
        room = topology.W - used.get(link, 0)
        if need > room:
            binding.append(f"link ({link[0]},{link[1]}) needs {need} wavelengths, "
                           f"only {room} left of W={topology.W}")
    return tuple(binding) or ("wavelength budgets bind jointly",)


# ---------------------------------------------------------------------------
# pipeline helpers

def _interface_usage(pairs: Iterable[tuple[Node, Node, int]]) -> dict[Node, int]:
    usage: dict[Node, int] = {}
    for (i, j, _q) in pairs:
        usage[i] = usage.get(i, 0) + 1
        usage[j] = usage.get(j, 0) + 1
    return usage


def _wavelength_usage(routes: Iterable[Sequence[Node]]) -> dict[Link, int]:
    usage: dict[Link, int] = {}
    for route in routes:
        for link in route_links(route):
            usage[link] = usage.get(link, 0) + 1
    return usage


class _MilpPhases:
    """Phase solver of ``plan``: each phase is built as a MILP, solved
    hierarchically and decoded."""

    def __init__(self, instance: ProblemInstance, options: PlanOptions):
        self.instance = instance
        self.options = options
        self.records: dict[str, PhaseRecord] = {}

    def _solve(self, model: MilpModel, stages: Sequence[Mapping[int, float]],
               label: str) -> dict[int, float]:
        """Minimize the stage objectives lexicographically in one search
        (each pinned before the next), then, at gap 0, the two tie-break
        scores; returns the last incumbent.  A stage stopped by the time
        limit above its gap (``options.gap`` for a cost stage, 0 for a
        tie-break) is not a result: it raises ``PlanError``."""
        staged = [(vec, self.options.gap, _PIN_EPS) for vec in stages]
        if self.options.exact():
            for level in (1, 2):
                vec = {vid: float(naming.tie_weight(name, level))
                       for vid, name in enumerate(model.names)}
                staged.append((vec, 0.0, 0.5))
        sol = solve_milp(model, time_limit=self.options.time_limit, stages=staged)
        for idx, (stage, (_vec, stage_gap, _eps)) in enumerate(zip(sol.stages, staged)):
            if stage.status in SOLVER_FAILURES:
                raise PlanError(label, f"LP solver failed: {stage.status}")
            if not stage.has_incumbent:
                raise PlanError(label, stage.status, binding=stage.infeasible_rows)
            if stage.status == "time-limit" and stage.gap > stage_gap:
                raise PlanError(label, f"stage {idx} stopped at its time limit with "
                                       f"incumbent {stage.objective:.6g}, bound "
                                       f"{stage.best_bound:.6g}, gap {stage.gap:.4g} "
                                       f"above {stage_gap:g}")
        first = sol.stages[0]
        self._record(label, first.status, first.objective, first.best_bound, first.gap,
                     sol.stats.nodes, sol.stats.lp_iterations, sol.stats.wall_time)
        return dict(sol.values)

    def _record(self, label: str, *fields) -> None:
        earlier = self.records.get(label)
        # a phase solved again after regrouping keeps its place and counts it
        self.records[label] = PhaseRecord(
            label, *fields, retries=0 if earlier is None else earlier.retries + 1)

    def _answered(self, label: str, model: MilpModel, values: dict[int, float] | None,
                  began: float) -> bool:
        """Whether a shortest-path point ``values`` meets every row of
        ``model``; if so, it is recorded as the phase's optimum: status
        ``optimal``, its cost as objective and best bound, gap 0, no node
        and no pivot, and the time since ``began``."""
        if values is None or check_solution(model, values):
            return False
        cost = model.evaluate_objective(values)
        self._record(label, "optimal", cost, cost, 0.0, 0, 0, time.perf_counter() - began)
        return True

    def logical(self, label: str, plane: str, context: ProtectionContext | None = None):
        """Logical-design phase of one plane (steps I and II, fused with
        step III or the spare-carrier placement in the integrated approach).

        At gap 0 in the sequential approach, a phase with one LSP is first
        answered by that LSP's lexicographically shortest route
        (``_shortest_lsp_route``), each hop keyed by its δ and β columns
        together, and recorded by ``_answered``.  One LSP has nothing to
        groom.  Costs are non-negative (load rejects negative element
        costs), tie weights are at least 1, and every feasible point covers
        a simple source-destination path in δ plus the β of each of its
        hops, which the capacity row b·δ <= C·β opens (load rejects a
        bandwidth within the feasibility tolerance).  Any other column at 1
        only adds to the key, so the route is the least (cost, tie 1, tie 2)
        over a superset of the feasible points.  If it meets every row
        under ``check_solution`` (eq 7, eq 11 and the no-good grouping
        cuts), it is the optimum of every stage.  Otherwise, and with two or
        more LSPs, at a gap above 0 or in the integrated approach, the model
        is searched.
        """
        instance = self.instance
        integrated = instance.approach is Approach.INTEGRATED
        lsps = instance.traffic if context is None else context.protected
        if integrated:
            model, varmap = build_integrated(instance, plane, context)
            stages = [varmap.mpls_objective, varmap.optical_objective]
        else:
            model, varmap = build_logical_design(instance, plane, context)
            stages = [varmap.mpls_objective]
        began = time.perf_counter()
        values = (_shortest_lsp_route(model, varmap.delta, varmap.beta, lsps[0])
                  if self.options.exact() and not integrated and len(lsps) == 1 else None)
        if not self._answered(label, model, values, began):
            values = self._solve(model, stages, label)
        limit = instance.topology.n + 1
        pairs = sorted(key for key, vid in varmap.beta.items() if values.get(vid, 0.0) > 0.5)
        walks = _decode_walks(varmap.delta, values,
                              {lsp.id: (lsp.source, lsp.destination) for lsp in lsps},
                              limit, f"decode-{plane}")
        opened = set(pairs)
        for k, (_path, hop) in walks.items():
            for i, j, q in hop:
                if (i, j, q) not in opened:
                    # a row met only within the feasibility tolerance
                    raise PlanError(f"decode-{plane}", f"LSP {k} crosses lightpath "
                                                       f"({i},{j},q={q}), which is not open")
        hops = {k: hop for k, (_path, hop) in walks.items()}
        nodes = {k: path for k, (path, _hop) in walks.items()}
        pair_routes = {}
        if integrated:
            pair_routes = {pair: path for pair, (path, _hop) in _decode_walks(
                varmap.lam, values, {pair: pair[:2] for pair in pairs}, limit,
                "decode-integrated").items()}
        return pairs, hops, nodes, pair_routes

    def route(self, label: str, lightpaths: Sequence[Lightpath],
              **routing) -> dict[int, tuple[Node, ...]]:
        """Lightpath-routing phase; an infeasible one is diagnosed within
        what is left of the phase's time limit.

        At gap 0 the phase is first answered by each lightpath's
        lexicographically shortest route (``_shortest_routes``).  Each
        lightpath has its own flow rows, eq (14)/(15), and only the link
        budgets, eq (17), tie one lightpath to another.  Without them the
        phase's (cost, tie 1, tie 2) stages separate by lightpath, and the
        flow LP of a single path is integral (Ahuja, Magnanti & Orlin,
        *Network Flows*, 1993), so the shortest routes are the optimum of
        every stage.  If they also meet every row of the model under
        ``check_solution``, they are the phase's gap-0 optimum, which the
        search would find too, and ``_answered`` records them.  Otherwise a
        budget binds, or some lightpath has no route, and the model is
        searched as at any gap.
        """
        topology, unit_costs = self.instance.topology, self.instance.unit_costs
        started = time.perf_counter()
        model, varmap = build_lightpath_routing(list(lightpaths), topology,
                                                unit_costs, **routing)
        began = time.perf_counter()
        values = _shortest_routes(model, varmap.lam, lightpaths) if self.options.exact() else None
        if not self._answered(label, model, values, began):
            try:
                values = self._solve(model, [varmap.optical_objective], label)
            except PlanError as exc:
                if exc.detail != "infeasible":
                    raise
                left = self.options.time_limit - (time.perf_counter() - started)
                binding = diagnose_lightpath_infeasibility(
                    lightpaths, topology, unit_costs, max(0.0, left), **routing)
                raise PlanError(label, exc.detail, binding=binding) from exc
        walks = _decode_walks(varmap.lam, values,
                              {lp.id: (lp.i, lp.j) for lp in lightpaths},
                              topology.n + 1,
                              "decode-plam" if routing.get("protection") else "decode-wlam")
        return {lp_id: path for lp_id, (path, _hop) in walks.items()}


# ---------------------------------------------------------------------------
# the pipeline

def _run_pipeline(instance: ProblemInstance, solver) -> NetworkConfiguration:
    """Run the survivability steps for the instance's mode and approach, with
    every phase solved by ``solver``, and assemble the configuration.

    The solver has ``records``, the phase records by name, and two methods:

    * ``logical(label, plane, context=None)`` designs one logical plane:
      every LSP on the working plane, or the context's protected LSPs with
      everything they must avoid.  It returns the active (i, j, q) pairs,
      each LSP's hops and node sequence, and (integrated approach) each
      pair's physical route;
    * ``route(label, lightpaths, **routing)`` routes lightpaths physically,
      taking the keywords of ``build_lightpath_routing``, and returns each
      lightpath's route by id.

    Everything between the phases is decided here, once for every solver:
    the protected set, the regrouping retries and the step IV targets.  What
    each protection route must avoid comes from ``formulation``:
    ``compute_exclusion_sets`` (once per plan), ``spare_carrier_exclusions``
    (also the oracle's integrated placement) and ``backup_exclusions``.
    """
    mode = instance.mode
    integrated = instance.approach is Approach.INTEGRATED

    # ---- step I (+ III when integrated): working-side design
    w_pairs, w_hops, w_nodes, w_pair_routes = solver.logical(
        "I-working-logical", WORKING)
    w_lightpaths = expand_lightpaths(w_pairs)
    w_key_to_id = {lp.key: lp.id for lp in w_lightpaths}
    routes_w = {w_key_to_id[(i, j, q, WORKING)]: r
                for (i, j, q), r in w_pair_routes.items()}

    # ---- step III: working-status lightpath physical routing
    if not integrated and w_lightpaths:
        routes_w = solver.route("III-working-lightpaths", w_lightpaths)

    lsp_working_lps = {
        k: tuple(w_key_to_id[(i, j, q, WORKING)] for (i, j, q) in hops)
        for k, hops in w_hops.items()}

    # ---- choose the protected LSP set
    if mode is SurvivabilityMode.NONE:
        protected: tuple = ()
    elif mode is SurvivabilityMode.SINGLE_LAYER:
        protected = instance.traffic
    else:
        protected = tuple(l for l in instance.traffic if len(w_hops[l.id]) >= 2)

    # ---- step II (+ spare-carrier placement)
    all_lightpaths = w_lightpaths
    routes_p: dict[int, tuple[Node, ...]] = {}
    lsp_plps: dict[int, tuple[int, ...]] = {}

    if protected:
        exclusions = compute_exclusion_sets(instance, mode, w_nodes, lsp_working_lps,
                                            routes_w)
        for lsp in protected:
            nex = exclusions.lsp_nodes.get(lsp.id, frozenset())
            if lsp.source in nex or lsp.destination in nex:
                raise PlanError("II-protection-logical",
                                f"exclusion set of LSP {lsp.id} covers an endpoint")
        wavelengths_w = _wavelength_usage(routes_w.values())
        base_ctx = ProtectionContext(
            protected=tuple(protected),
            interface_usage=_interface_usage(w_pairs),
            exclusions=exclusions,
            wavelengths_used=wavelengths_w,
        )

        forbidden: list[tuple[tuple[int, Node, Node, int], ...]] = []
        retries = 0
        try:
            while True:
                ctx = replace(base_ctx, forbidden_groupings=tuple(forbidden))
                p_pairs, p_hops, _p_nodes, p_pair_routes = solver.logical(
                    "II-protection-logical", PROTECTION, ctx)
                all_lightpaths = expand_lightpaths(w_pairs, p_pairs)
                key_to_id = {lp.key: lp.id for lp in all_lightpaths}
                lsp_plps = {
                    k: tuple(key_to_id[(i, j, q, PROTECTION)] for (i, j, q) in hops)
                    for k, hops in p_hops.items()}
                routes_p = {key_to_id[(i, j, q, PROTECTION)]: r
                            for (i, j, q), r in p_pair_routes.items()}
                if integrated:
                    break

                carriers: dict[int, list[int]] = {}
                for k, lp_ids in sorted(lsp_plps.items()):
                    for lp_id in lp_ids:
                        carriers.setdefault(lp_id, []).append(k)
                excl = spare_carrier_exclusions(exclusions, carriers)
                p_lightpaths = [lp for lp in all_lightpaths if lp.status == PROTECTION]
                blocked = (_cut_off(p_lightpaths, instance.topology, excl)
                           if mode.plsp_physically_disjoint else [])
                if not blocked:
                    if p_lightpaths:
                        routes_p = solver.route(
                            "III-spare-carrier-lightpaths", p_lightpaths,
                            exclusions=excl, wavelengths_used=wavelengths_w)
                    break
                if retries >= MAX_GROUPING_RETRIES:
                    raise PlanError("II-protection-logical", "; ".join(
                        f"lightpath {lp.id} ({lp.i},{lp.j},q={lp.q}) cannot avoid "
                        f"the working routes of pLSPs {carriers[lp.id]}" for lp in blocked))
                forbidden += [tuple((k, lp.i, lp.j, lp.q) for k in carriers[lp.id])
                              for lp in blocked]
                retries += 1
        except PlanError as exc:
            raise PlanError(exc.phase, exc.detail, retries, exc.binding) from exc

    lightpath_routes = {**routes_w, **routes_p}

    # ---- step IV: protection lightpaths (optical backups), multilayer only
    protection_routes: dict[int, tuple[Node, ...]] = {}
    if mode.multilayer:
        if mode is SurvivabilityMode.ML_DOUBLE:
            to_protect = list(all_lightpaths)
        else:
            to_protect = [lp for lp in all_lightpaths if lp.status == WORKING]
        if to_protect:
            protection_routes = solver.route(
                "IV-protection-lightpaths", to_protect, protection=True,
                exclusions=backup_exclusions(mode, to_protect, lightpath_routes,
                                             w_nodes, lsp_plps),
                wavelengths_used=_wavelength_usage(lightpath_routes.values()))

    lsp_routes = {
        lsp.id: LspRoute(lsp_id=lsp.id, working=lsp_working_lps[lsp.id],
                         protection=lsp_plps.get(lsp.id))
        for lsp in instance.traffic}
    return assemble_configuration(instance, all_lightpaths, lightpath_routes,
                                  protection_routes, lsp_routes,
                                  tuple(solver.records.values()))


def plan(instance: ProblemInstance, options: PlanOptions | None = None) -> NetworkConfiguration:
    """Run the survivability pipeline for the instance's mode and approach.

    Steps: I working-LSP logical design, III working-side physical routing
    (fused with I under the integrated approach), II protection-LSP logical
    design plus spare-carrier placement, IV protection-lightpath routing
    (multilayer modes).  Execution order follows the data dependencies: the
    spare-unprotected and interlayer-BRS exclusion rules need the physical
    routes of step III before step II can be posed.
    """
    options = options or PlanOptions()
    config = _run_pipeline(instance, _MilpPhases(instance, options))
    overloads = lightpath_overloads(config)
    if overloads:
        raise PlanError("exact-capacity", "; ".join(overloads))
    return config


def lightpath_overloads(config: NetworkConfiguration) -> tuple[str, ...]:
    """Each lightpath whose load exceeds the capacity C, in exact rationals.
    A lightpath's load is what its capacity row, eq (12) or (13), sums: the
    bandwidth of each LSP route through it, working routes over working
    lightpaths and protection routes over protection ones.  The solver
    holds that row only within its float tolerance, so this check is the
    one that decides."""
    capacity = config.instance.params.C
    load: dict[int, Fraction] = {}
    for lsp in config.instance.traffic:
        route = config.lsp_routes[lsp.id]
        for lp_id in route.working + (route.protection or ()):
            load[lp_id] = load.get(lp_id, Fraction(0)) + lsp.bandwidth
    return tuple(f"{lp.status} lightpath {lp.id} ({lp.i},{lp.j},q={lp.q}) carries "
                 f"{float(load[lp.id])!r} Gbps, {float(load[lp.id] - capacity)!r} Gbps "
                 f"over its capacity {float(capacity)!r}"
                 for lp in config.lightpaths if load.get(lp.id, 0) > capacity)


def transit_traffic(config: NetworkConfiguration) -> tuple[dict[Node, Fraction], Fraction]:
    """Per-node transit: bandwidth electronically forwarded at nodes that are
    neither source nor destination, over working and protection LSP routes."""
    delta: dict[Node, Fraction] = {n: Fraction(0) for n in config.instance.topology.nodes}
    for lsp in config.instance.traffic:
        route = config.lsp_routes[lsp.id]
        for side in ("working", "protection"):
            if side == "protection" and route.protection is None:
                continue
            for x in config.lsp_logical_nodes(lsp.id, side)[1:-1]:
                delta[x] += lsp.bandwidth
    return delta, sum(delta.values(), Fraction(0))


def apply_brs_sharing(config: NetworkConfiguration) -> NetworkConfiguration:
    """Backup-resource sharing arithmetic: spare-carrier wavelengths ride in
    the optical protection pool; each link provisions w1 + max(s, w2)."""
    total: dict[Link, int] = {}
    extra = 0
    w2_sum = 0
    for link in sorted(config.instance.topology.links):
        w1 = config.link_working_w.get(link, 0)
        w2 = config.link_working_p.get(link, 0)
        s = config.link_spare.get(link, 0)
        count = w1 + max(s, w2)
        if count:
            total[link] = count
        extra += max(0, w2 - s)
        w2_sum += w2
    config.link_total = total
    config.extra_wavelengths = extra
    config.reuse_factor = Fraction(1) if w2_sum == 0 else 1 - Fraction(extra, w2_sum)
    return config


def total_cost(source, unit_costs: UnitCosts) -> CostBreakdown:
    """Evaluate the configuration cost: transit + lightpath + optical terms.

    Accepts a NetworkConfiguration or any object with ``transit_gbps``,
    ``lightpaths`` and ``wavelengths`` fields (e.g. published resource
    counts).
    """
    counts = source.counts() if isinstance(source, NetworkConfiguration) else source
    transit = unit_costs.c_tt * Fraction(counts.transit_gbps)
    lightpath = unit_costs.c_lp * counts.lightpaths
    optical = unit_costs.c_wl * counts.wavelengths
    return CostBreakdown(transit=transit, lightpath=lightpath, optical=optical)


def assemble_configuration(instance: ProblemInstance,
                           lightpaths: Sequence[Lightpath],
                           lightpath_routes: Mapping[int, tuple[Node, ...]],
                           protection_routes: Mapping[int, tuple[Node, ...]],
                           lsp_routes: Mapping[int, LspRoute],
                           phases: tuple[PhaseRecord, ...] = ()) -> NetworkConfiguration:
    """Build a configuration from raw routes and derive every capacity,
    transit and cost field."""
    config = NetworkConfiguration(
        instance=instance,
        lightpaths=tuple(lightpaths),
        lightpath_routes=dict(lightpath_routes),
        protection_routes=dict(protection_routes),
        lsp_routes=dict(lsp_routes),
        phases=phases,
    )
    link_w, link_p, link_s = config.link_working_w, config.link_working_p, config.link_spare
    for lp in config.lightpaths:
        pairs = config.pair_working if lp.status == WORKING else config.pair_spare
        pairs[(lp.i, lp.j)] = pairs.get((lp.i, lp.j), 0) + 1
        target = link_w if lp.status == WORKING else link_p
        for link in route_links(config.lightpath_routes[lp.id]):
            target[link] = target.get(link, 0) + 1
    for route in config.protection_routes.values():
        for link in route_links(route):
            link_s[link] = link_s.get(link, 0) + 1

    if instance.mode is SurvivabilityMode.ML_INTERLAYER_BRS:
        apply_brs_sharing(config)
    else:
        config.link_total = {
            link: link_w.get(link, 0) + link_p.get(link, 0) + link_s.get(link, 0)
            for link in set(link_w) | set(link_p) | set(link_s)}

    delta, _total = transit_traffic(config)
    config.transit = {n: v for n, v in delta.items() if v}
    config.cost = total_cost(config, instance.unit_costs)
    return config


def export_phase_models(instance: ProblemInstance) -> dict[str, MilpModel]:
    """Phase models derivable from the instance alone (no solving): the
    working-side design.  Later phases need solved working routes, so a full
    pipeline export means solving here and feeding routes back in."""
    if instance.approach is Approach.INTEGRATED:
        model, _ = build_integrated(instance, WORKING)
        return {"phase-I+III-working-integrated": model}
    model, _ = build_logical_design(instance, WORKING)
    return {"phase-I-working-logical": model}
