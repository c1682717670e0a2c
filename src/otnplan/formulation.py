"""Node-arc integer programs for logical design, LSP routing and lightpath
routing, plus protection exclusion sets.

Flow conservation systems are built on directed arcs (both orientations of
every undirected link or node pair); a single undirected route is extracted
afterwards and every capacity counts the undirected entity once.  Constraint
names carry their equation-family tag (``eq9[...]`` etc.) so an audit can
list per-family counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from . import naming
from .milp import MilpModel
from .modes import Approach, SurvivabilityMode
from .netmodel import (LspDemand, Link, Node, PhysicalTopology, SystemParams,
                       UnitCosts, normalize_link, route_links)

__all__ = [
    "ProblemInstance",
    "Lightpath",
    "ExclusionSets",
    "ProtectionContext",
    "WorkingState",
    "DecisionVarMap",
    "build_logical_design",
    "build_lightpath_routing",
    "build_integrated",
    "compute_exclusion_sets",
    "exclusion_blocks_route",
    "diagnose_lightpath_infeasibility",
    "estimate_problem_size",
    "estimate_problem_size_raw",
    "audit_model",
    "expand_lightpaths",
    "WORKING", "PROTECTION",
]

WORKING = "working"
PROTECTION = "protection"


@dataclass(frozen=True)
class ProblemInstance:
    """A complete design problem: topology, split traffic, limits, unit costs,
    survivability mode and configuration approach."""

    topology: PhysicalTopology
    traffic: tuple[LspDemand, ...]
    params: SystemParams
    unit_costs: UnitCosts
    mode: SurvivabilityMode = SurvivabilityMode.NONE
    approach: Approach = Approach.SEQUENTIAL

    def __post_init__(self):
        nodes = set(self.topology.nodes)
        for lsp in self.traffic:
            if lsp.source not in nodes or lsp.destination not in nodes:
                raise ValueError(f"LSP {lsp.id} references unknown nodes")
            if lsp.bandwidth > self.params.C:
                raise ValueError(
                    f"LSP {lsp.id} bandwidth {lsp.bandwidth} exceeds lightpath "
                    f"capacity {self.params.C}; demands must be pre-split")

    def with_mode(self, mode: SurvivabilityMode, approach: Approach | None = None) -> "ProblemInstance":
        return ProblemInstance(self.topology, self.traffic, self.params, self.unit_costs,
                               mode, approach or self.approach)


@dataclass(frozen=True)
class Lightpath:
    """One logical link: the q-th lightpath of a given status between i and j."""

    id: int
    i: Node
    j: Node
    q: int
    status: str  # WORKING (carries wLSPs) | PROTECTION (carries pLSPs)

    @property
    def pair(self) -> Link:
        return (self.i, self.j)

    @property
    def key(self) -> tuple:
        return (self.i, self.j, self.q, self.status)


def expand_lightpaths(working_pairs: Iterable[tuple[Node, Node, int]],
                      protection_pairs: Iterable[tuple[Node, Node, int]] = ()) -> tuple[Lightpath, ...]:
    """Canonical lightpath list: working entities first, each group sorted by
    (i, j, q); ids are the positions.  Planner and oracle share this ordering
    so physically-routed entities carry identical names."""
    out: list[Lightpath] = []
    for i, j, q in sorted(working_pairs):
        out.append(Lightpath(len(out), i, j, q, WORKING))
    for i, j, q in sorted(protection_pairs):
        out.append(Lightpath(len(out), i, j, q, PROTECTION))
    return tuple(out)


@dataclass
class ExclusionSets:
    """Nodes (and, for exactness, links) that protection routes must avoid.

    ``lsp_nodes`` drives the protection-LSP logical routing; the lightpath
    maps drive physical routing: spare-carrying lightpaths inherit the union
    of their passengers' exclusions, protection lightpaths avoid the transit
    nodes of the route they protect.
    """

    lsp_nodes: dict[int, frozenset[Node]] = field(default_factory=dict)
    lsp_phys_nodes: dict[int, frozenset[Node]] = field(default_factory=dict)
    lsp_links: dict[int, frozenset[Link]] = field(default_factory=dict)
    lightpath_nodes: dict[int, frozenset[Node]] = field(default_factory=dict)
    lightpath_links: dict[int, frozenset[Link]] = field(default_factory=dict)
    infeasible: tuple[str, ...] = ()


@dataclass
class ProtectionContext:
    """Fixed working-side facts feeding the protection logical phase."""

    protected: tuple[LspDemand, ...]
    interface_usage: Mapping[Node, int]
    excluded_nodes: Mapping[int, frozenset[Node]]
    forbidden_groupings: tuple[tuple[tuple[int, Node, Node, int], ...], ...] = ()


@dataclass
class DecisionVarMap:
    """Semantic index -> model variable id, plus objective stage vectors."""

    model: MilpModel
    wbeta: dict[tuple[Node, Node, int], int] = field(default_factory=dict)
    pbeta: dict[tuple[Node, Node, int], int] = field(default_factory=dict)
    wdelta: dict[tuple[int, Node, Node, int], int] = field(default_factory=dict)
    pdelta: dict[tuple[int, Node, Node, int], int] = field(default_factory=dict)
    wlam: dict[tuple[int, Node, Node], int] = field(default_factory=dict)
    plam: dict[tuple[int, Node, Node], int] = field(default_factory=dict)
    wlam_int: dict[tuple[Node, Node, int, Node, Node], int] = field(default_factory=dict)
    plam_int: dict[tuple[Node, Node, int, Node, Node], int] = field(default_factory=dict)
    mpls_objective: dict[int, float] = field(default_factory=dict)
    optical_objective: dict[int, float] = field(default_factory=dict)

    def lsp_routing_count(self) -> int:
        return len(self.wdelta) + len(self.pdelta)

    def lightpath_routing_count(self) -> int:
        return len(self.wlam) + len(self.plam) + len(self.wlam_int) + len(self.plam_int)


def _node_pairs(nodes: Sequence[Node]) -> list[tuple[Node, Node]]:
    s = sorted(nodes)
    return [(a, b) for ai, a in enumerate(s) for b in s[ai + 1:]]


def _ordered_pairs(nodes: Sequence[Node]) -> list[tuple[Node, Node]]:
    s = sorted(nodes)
    return [(a, b) for a in s for b in s if a != b]


# ---------------------------------------------------------------------------
# logical topology design + LSP routing (sequential steps I and II)

def build_logical_design(instance: ProblemInstance, phase: str,
                         context: ProtectionContext | None = None
                         ) -> tuple[MilpModel, DecisionVarMap]:
    """Model for one MPLS-layer phase.

    ``working``: route every LSP and open working-status lightpaths.
    ``protection``: route the protected LSPs over protection-status
    lightpaths, skipping excluded nodes; requires a ProtectionContext.
    Objective: transit-traffic cost plus lightpath cost of the phase.
    """
    if phase not in (WORKING, PROTECTION):
        raise ValueError(f"unknown phase {phase!r}")
    if phase == PROTECTION and context is None:
        raise ValueError("protection phase requires a ProtectionContext")

    topo = instance.topology
    params = instance.params
    costs = instance.unit_costs
    nodes = sorted(topo.nodes)
    pairs = _node_pairs(nodes)
    qs = range(1, params.Q + 1)
    c_cap = float(params.C)

    model = MilpModel(f"logical-{phase}")
    varmap = DecisionVarMap(model)
    prefix = "w" if phase == WORKING else "p"
    beta_name = naming.wbeta if phase == WORKING else naming.pbeta
    delta_name = naming.wdelta if phase == WORKING else naming.pdelta
    beta = varmap.wbeta if phase == WORKING else varmap.pbeta
    delta = varmap.wdelta if phase == WORKING else varmap.pdelta

    lsps = instance.traffic if phase == WORKING else context.protected
    excluded: Mapping[int, frozenset[Node]] = (
        context.excluded_nodes if phase == PROTECTION else {})

    for (i, j) in pairs:
        for q in qs:
            vid = model.add_variable(beta_name(i, j, q), "binary",
                                     objective=float(costs.c_lp))
            beta[(i, j, q)] = vid
            varmap.mpls_objective[vid] = float(costs.c_lp)

    for lsp in lsps:
        nex = excluded.get(lsp.id, frozenset())
        b = float(lsp.bandwidth)
        for (i, j) in _ordered_pairs(nodes):
            for q in qs:
                blocked = i in nex or j in nex
                vid = model.add_variable(delta_name(lsp.id, i, j, q), "binary",
                                         upper=0.0 if blocked else 1.0,
                                         objective=float(costs.c_tt) * b)
                delta[(lsp.id, i, j, q)] = vid
                varmap.mpls_objective[vid] = float(costs.c_tt) * b

    # flow conservation, eq (9) working / eq (10) protection
    eq_flow = "eq9" if phase == WORKING else "eq10"
    for lsp in lsps:
        nex = excluded.get(lsp.id, frozenset())
        for i in nodes:
            if i in nex:
                continue
            terms = []
            for j in nodes:
                if j == i:
                    continue
                for q in qs:
                    terms.append((delta[(lsp.id, i, j, q)], 1.0))
                    terms.append((delta[(lsp.id, j, i, q)], -1.0))
            rhs = 1.0 if i == lsp.source else (-1.0 if i == lsp.destination else 0.0)
            model.add_constraint(f"{eq_flow}[k={lsp.id},i={i}]", terms, "=", rhs)

    # eq (11): a protected LSP crosses each logical link at most once; its
    # working and protection paths can never share a lightpath because the
    # working/protection planes are split into separate entities
    if phase == PROTECTION:
        for lsp in lsps:
            for (i, j) in pairs:
                for q in qs:
                    model.add_constraint(
                        f"eq11[k={lsp.id},i={i},j={j},q={q}]",
                        [(delta[(lsp.id, i, j, q)], 1.0), (delta[(lsp.id, j, i, q)], 1.0)],
                        "<=", 1.0)

    # lightpath capacity, eq (12) working / eq (13) protection
    eq_cap = "eq12" if phase == WORKING else "eq13"
    for (i, j) in pairs:
        for q in qs:
            terms: list[tuple[int, float]] = [(beta[(i, j, q)], -c_cap)]
            for lsp in lsps:
                b = float(lsp.bandwidth)
                terms.append((delta[(lsp.id, i, j, q)], b))
                terms.append((delta[(lsp.id, j, i, q)], b))
            model.add_constraint(f"{eq_cap}[i={i},j={j},q={q}]", terms, "<=", 0.0)

    # router interface budget, eqs (7)+(8) (one row per node: every modelled
    # lightpath is bidirectional, so origination and termination coincide)
    usage = context.interface_usage if phase == PROTECTION else {}
    for i in nodes:
        terms = []
        for (a, b_) in pairs:
            if i in (a, b_):
                for q in qs:
                    terms.append((beta[(a, b_, q)], 1.0))
        model.add_constraint(f"eq7[i={i}]", terms, "<=",
                             float(params.T - usage.get(i, 0)))

    # no-good cuts from rejected spare-carrier groupings
    if phase == PROTECTION:
        for gi, grouping in enumerate(context.forbidden_groupings):
            terms = []
            for (k, i, j, q) in grouping:
                terms.append((delta[(k, i, j, q)], 1.0))
                terms.append((delta[(k, j, i, q)], 1.0))
            model.add_constraint(f"cut[g={gi}]", terms, "<=", float(len(grouping) - 1))

    return model, varmap


# ---------------------------------------------------------------------------
# lightpath physical routing (sequential steps III and IV)

def build_lightpath_routing(lightpaths: Sequence[Lightpath],
                            topology: PhysicalTopology,
                            unit_costs: UnitCosts,
                            *,
                            protection: bool = False,
                            exclusions: ExclusionSets | None = None,
                            working_links: Mapping[int, frozenset[Link]] | None = None,
                            forbidden_links: Mapping[int, frozenset[Link]] | None = None,
                            wavelengths_used: Mapping[Link, int] | None = None,
                            ) -> tuple[MilpModel, DecisionVarMap]:
    """Route each lightpath (or, with ``protection=True``, its protection
    lightpath) over physical links, minimizing wavelength cost.

    Exclusion nodes/links are fixed out of the flow system per entity;
    ``working_links`` bans a protection lightpath from the route it protects
    (link disjointness); ``forbidden_links`` carries extra per-entity bans
    (the interlayer-BRS co-location rule); ``wavelengths_used`` reserves
    already-committed capacity on each link.
    """
    model = MilpModel("lightpath-protection" if protection else "lightpath-working")
    varmap = DecisionVarMap(model)
    lam = varmap.plam if protection else varmap.wlam
    lam_name = naming.plam if protection else naming.wlam
    eq_flow = "eq15" if protection else "eq14"
    arcs = topology.arcs()
    links = sorted(set(topology.links))
    used = wavelengths_used or {}
    exclusions = exclusions or ExclusionSets()
    nodemap = exclusions.lightpath_nodes
    linkmap = exclusions.lightpath_links

    for lp in lightpaths:
        ex_nodes = nodemap.get(lp.id, frozenset())
        ex_links = set(linkmap.get(lp.id, frozenset()))
        if forbidden_links:
            ex_links |= set(forbidden_links.get(lp.id, frozenset()))
        for (m, n) in arcs:
            blocked = m in ex_nodes or n in ex_nodes or normalize_link(m, n) in ex_links
            vid = model.add_variable(lam_name(lp.id, m, n), "binary",
                                     upper=0.0 if blocked else 1.0,
                                     objective=float(unit_costs.c_wl))
            lam[(lp.id, m, n)] = vid
            varmap.optical_objective[vid] = float(unit_costs.c_wl)

        for n in sorted(topology.nodes):
            if n in ex_nodes:
                continue
            terms = []
            for m in topology.neighbors(n):
                terms.append((lam[(lp.id, n, m)], 1.0))
                terms.append((lam[(lp.id, m, n)], -1.0))
            rhs = 1.0 if n == lp.i else (-1.0 if n == lp.j else 0.0)
            if not terms and rhs == 0.0:
                continue
            model.add_constraint(f"{eq_flow}[lp={lp.id},n={n}]", terms, "=", rhs)

        if protection and working_links:
            for (m, n) in sorted(working_links.get(lp.id, frozenset())):
                model.add_constraint(
                    f"eq16[lp={lp.id},m={m},n={n}]",
                    [(lam[(lp.id, m, n)], 1.0), (lam[(lp.id, n, m)], 1.0)],
                    "<=", 0.0)

    eq_cap = "eq17"
    for (m, n) in links:
        terms = []
        for lp in lightpaths:
            terms.append((lam[(lp.id, m, n)], 1.0))
            terms.append((lam[(lp.id, n, m)], 1.0))
        model.add_constraint(f"{eq_cap}[m={m},n={n}]", terms, "<=",
                             float(topology.W - used.get((m, n), 0)))
    return model, varmap


# ---------------------------------------------------------------------------
# integrated configuration (steps I+III, and II+IV's spare-carrier placement)

def build_integrated(instance: ProblemInstance, phase: str,
                     context: ProtectionContext | None = None,
                     *,
                     lsp_excluded_phys_nodes: Mapping[int, frozenset[Node]] | None = None,
                     lsp_excluded_links: Mapping[int, frozenset[Link]] | None = None,
                     wavelengths_used: Mapping[Link, int] | None = None,
                     ) -> tuple[MilpModel, DecisionVarMap]:
    """Joint logical design + lightpath placement in one model.

    The flow of each potential lightpath over physical links is tied to its
    existence variable (eq 18); per-link wavelength budgets apply (eq 20).
    In the protection phase the physical route of a spare-carrying lightpath
    must avoid each passenger's excluded nodes/links, expressed with
    conditional rows (a lightpath arc and a passenger indicator cannot both
    be active).
    """
    if phase == PROTECTION and context is None:
        raise ValueError("protection phase requires a ProtectionContext")

    model, varmap = build_logical_design(instance, phase, context)
    model.name = f"integrated-{phase}"
    topo = instance.topology
    params = instance.params
    costs = instance.unit_costs
    nodes = sorted(topo.nodes)
    pairs = _node_pairs(nodes)
    qs = range(1, params.Q + 1)
    arcs = topo.arcs()
    used = wavelengths_used or {}

    beta = varmap.wbeta if phase == WORKING else varmap.pbeta
    delta = varmap.wdelta if phase == WORKING else varmap.pdelta
    lam = varmap.wlam_int if phase == WORKING else varmap.plam_int
    lam_name = naming.wlam_integrated if phase == WORKING else naming.plam_integrated

    for (i, j) in pairs:
        for q in qs:
            for (m, n) in arcs:
                vid = model.add_variable(lam_name(i, j, q, m, n), "binary",
                                         objective=float(costs.c_wl))
                lam[(i, j, q, m, n)] = vid
                varmap.optical_objective[vid] = float(costs.c_wl)

    # eq (18): lightpath-level flow conservation tied to the existence binary
    for (i, j) in pairs:
        for q in qs:
            for n in nodes:
                terms = []
                for m in topo.neighbors(n):
                    terms.append((lam[(i, j, q, n, m)], 1.0))
                    terms.append((lam[(i, j, q, m, n)], -1.0))
                if n == i:
                    terms.append((beta[(i, j, q)], -1.0))
                elif n == j:
                    terms.append((beta[(i, j, q)], 1.0))
                elif not terms:
                    continue
                model.add_constraint(f"eq18[i={i},j={j},q={q},n={n}]", terms, "=", 0.0)

    # eq (20): per-link wavelength budget
    for (m, n) in sorted(set(topo.links)):
        terms = []
        for (i, j) in pairs:
            for q in qs:
                terms.append((lam[(i, j, q, m, n)], 1.0))
                terms.append((lam[(i, j, q, n, m)], 1.0))
        model.add_constraint(f"eq20[m={m},n={n}]", terms, "<=",
                             float(topo.W - used.get((m, n), 0)))

    # conditional physical exclusions for spare-carrying lightpaths
    if phase == PROTECTION:
        ex_nodes = lsp_excluded_phys_nodes or {}
        ex_links = lsp_excluded_links or {}
        for lsp in context.protected:
            nex = ex_nodes.get(lsp.id, frozenset())
            lex = ex_links.get(lsp.id, frozenset())
            if not nex and not lex:
                continue
            for (i, j) in pairs:
                for q in qs:
                    d1 = delta[(lsp.id, i, j, q)]
                    d2 = delta[(lsp.id, j, i, q)]
                    for (m, n) in arcs:
                        if m in nex or n in nex or normalize_link(m, n) in lex:
                            model.add_constraint(
                                f"exc[k={lsp.id},i={i},j={j},q={q},m={m},n={n}]",
                                [(lam[(i, j, q, m, n)], 1.0), (d1, 1.0), (d2, 1.0)],
                                "<=", 1.0)
    return model, varmap


# ---------------------------------------------------------------------------
# exclusion sets

def exclusion_blocks_route(topology: PhysicalTopology, a: Node, b: Node,
                           excluded_nodes: frozenset[Node],
                           excluded_links: frozenset[Link]) -> bool:
    """True when no a-b path survives the exclusions (or an endpoint itself
    is excluded)."""
    if a in excluded_nodes or b in excluded_nodes:
        return True
    adj: dict[Node, set[Node]] = {v: set() for v in topology.nodes}
    for (m, n) in set(topology.links):
        if m == n or normalize_link(m, n) in excluded_links:
            continue
        if m in excluded_nodes or n in excluded_nodes:
            continue
        adj[m].add(n)
        adj[n].add(m)
    seen = {a}
    stack = [a]
    while stack:
        v = stack.pop()
        if v == b:
            return False
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return True


@dataclass
class WorkingState:
    """Decoded working-side facts used to derive exclusion sets."""

    instance: ProblemInstance
    lsp_logical_nodes: Mapping[int, tuple[Node, ...]]
    lsp_lightpaths: Mapping[int, tuple[int, ...]]
    lightpaths: Mapping[int, Lightpath]
    lightpath_routes: Mapping[int, tuple[Node, ...]] | None = None
    plsp_carriers: Mapping[int, tuple[int, ...]] | None = None  # pβ lp id -> pLSP ids


def compute_exclusion_sets(state: WorkingState, mode: SurvivabilityMode) -> ExclusionSets:
    """Exclusion sets per the mode's protection-routing rules.

    * protection-LSP logical routing avoids the working LSP's logical transit
      nodes; the two multilayer variants without optical protection of spare
      carriers additionally avoid the physical transit nodes of the working
      LSP's lightpaths (an OXC failure must not take out both paths);
    * a spare-carrying lightpath physically avoids the union of its
      passengers' working physical routes (nodes and links);
    * a protection lightpath avoids the transit nodes and the links of the
      working route it protects.

    Whatever is not derivable from the supplied state (for example physical
    routes before step III has run) is simply left out of the result.
    """
    inst = state.instance
    result = ExclusionSets()
    infeasible: list[str] = []

    lsp_by_id = {lsp.id: lsp for lsp in inst.traffic}
    routes = state.lightpath_routes or {}

    def lsp_physical_internals(k: int) -> tuple[frozenset[Node], frozenset[Link]]:
        lsp = lsp_by_id[k]
        lp_ids = state.lsp_lightpaths.get(k, ())
        node_routes = [routes[lp] for lp in lp_ids if lp in routes]
        nodes = set()
        links: set[Link] = set()
        for r in node_routes:
            nodes.update(r)
            links.update(route_links(r))
        # logical hop points are on the physical path too
        nodes.update(state.lsp_logical_nodes.get(k, ()))
        nodes.discard(lsp.source)
        nodes.discard(lsp.destination)
        return frozenset(nodes), frozenset(links)

    # --- protection-LSP logical exclusions
    for k, logical in state.lsp_logical_nodes.items():
        transit = frozenset(logical[1:-1])
        if mode in (SurvivabilityMode.ML_SPARE_UNPROTECTED,
                    SurvivabilityMode.ML_INTERLAYER_BRS) and routes:
            phys_nodes, _ = lsp_physical_internals(k)
            result.lsp_nodes[k] = transit | phys_nodes
        else:
            result.lsp_nodes[k] = transit
        if routes:
            phys_nodes, phys_links = lsp_physical_internals(k)
            result.lsp_phys_nodes[k] = phys_nodes
            result.lsp_links[k] = phys_links

    # --- spare-carrying lightpath physical exclusions
    if state.plsp_carriers is not None and routes:
        for lp_id, passengers in state.plsp_carriers.items():
            lp = state.lightpaths[lp_id]
            nodes: set[Node] = set()
            links: set[Link] = set()
            for k in passengers:
                n_k, l_k = lsp_physical_internals(k)
                nodes |= n_k
                links |= l_k
            result.lightpath_nodes[lp_id] = frozenset(nodes)
            result.lightpath_links[lp_id] = frozenset(links)
            if lp.i in nodes or lp.j in nodes or exclusion_blocks_route(
                    inst.topology, lp.i, lp.j, frozenset(nodes), frozenset(links)):
                infeasible.append(
                    f"lightpath {lp.id} ({lp.i},{lp.j},q={lp.q}) cannot avoid the "
                    f"working routes of pLSPs {sorted(passengers)}")

    # --- protection-lightpath (optical backup) exclusions
    if routes:
        for lp_id, route in routes.items():
            lp = state.lightpaths.get(lp_id)
            if lp is None:
                continue
            transit = frozenset(route[1:-1])
            result.lightpath_nodes.setdefault(lp_id, transit)
            result.lightpath_links.setdefault(lp_id, route_links(route))

    result.infeasible = tuple(infeasible)
    return result


# ---------------------------------------------------------------------------
# size estimates and audit

def diagnose_lightpath_infeasibility(lightpaths: Sequence[Lightpath],
                                     topology: PhysicalTopology,
                                     unit_costs: UnitCosts,
                                     **routing_kwargs) -> tuple[str, ...]:
    """Explain an infeasible lightpath-routing phase.

    The phase is re-solved with the wavelength budgets lifted: if that
    succeeds, the binding links are those whose lifted usage exceeds the real
    budget; otherwise some entity has no admissible route at all and it is
    named instead.
    """
    from .milp import solve_milp  # local import keeps module layering simple

    relaxed = PhysicalTopology(topology.nodes, topology.links, W=10 ** 6)
    model, varmap = build_lightpath_routing(list(lightpaths), relaxed, unit_costs,
                                            **routing_kwargs)
    sol = solve_milp(model, gap=0.0, time_limit=60)
    if not sol.has_incumbent:
        lam = varmap.plam if routing_kwargs.get("protection") else varmap.wlam
        blocked = []
        for lp in lightpaths:
            single, _ = build_lightpath_routing([lp], relaxed, unit_costs,
                                                **routing_kwargs)
            if not solve_milp(single, gap=0.0, time_limit=30).has_incumbent:
                blocked.append(f"lightpath {lp.id} ({lp.i},{lp.j},q={lp.q}) has no "
                               f"admissible route")
        return tuple(blocked) or ("no joint routing exists",)
    lam = varmap.plam if routing_kwargs.get("protection") else varmap.wlam
    usage: dict[Link, int] = {}
    for (lp_id, m, n), vid in lam.items():
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


def estimate_problem_size_raw(n_nodes: int, k_lsps: int, q: int,
                              approach: Approach, n_links: int = 0) -> int:
    """Closed-form variable-count estimate (an estimate, not an exact count)."""
    base = q * n_nodes * n_nodes * k_lsps / 2
    if approach is Approach.INTEGRATED:
        base += q * n_nodes * n_nodes * n_links
    return int(round(base))


def estimate_problem_size(instance: ProblemInstance,
                          approach: Approach | None = None) -> int:
    ap = approach or instance.approach
    return estimate_problem_size_raw(instance.topology.n, len(instance.traffic),
                                     instance.params.Q, ap,
                                     len(set(instance.topology.links)))


def audit_model(model: MilpModel) -> str:
    """Per-equation-family constraint counts, one line each."""
    counts: dict[str, int] = {}
    for con in model.constraints:
        family = con.name.split("[", 1)[0]
        counts[family] = counts.get(family, 0) + 1
    lines = [f"{model.name}: {len(model.variables)} variables, "
             f"{len(model.constraints)} constraints"]
    for family in sorted(counts):
        lines.append(f"  {family}: {counts[family]}")
    return "\n".join(lines) + "\n"
