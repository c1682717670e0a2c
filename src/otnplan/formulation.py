"""Node-arc integer programs for logical design, LSP routing and lightpath
routing, plus protection exclusion sets.

What a protection route avoids is decided here alone: each LSP's sets by
``compute_exclusion_sets`` once per plan, a spare carrier's by
``spare_carrier_exclusions`` from them, an optical backup's by
``backup_exclusions``.

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
from .naming import PROTECTION, WORKING
from .netmodel import (LspDemand, Link, Node, PhysicalTopology, SystemParams,
                       UnitCosts, normalize_link, reachable, route_links)

__all__ = [
    "ProblemInstance",
    "Lightpath",
    "ExclusionSets",
    "ProtectionContext",
    "DecisionVarMap",
    "build_logical_design",
    "build_lightpath_routing",
    "build_integrated",
    "compute_exclusion_sets",
    "spare_carrier_exclusions",
    "backup_exclusions",
    "estimate_problem_size",
    "estimate_problem_size_raw",
    "audit_model",
    "expand_lightpaths",
    "WORKING", "PROTECTION",
]

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
        reach: dict[Node, set[Node]] = {}
        for lsp in self.traffic:
            if lsp.source not in nodes or lsp.destination not in nodes:
                raise ValueError(f"LSP {lsp.id} references unknown nodes")
            if lsp.source not in reach:
                reach[lsp.source] = reachable(self.topology, lsp.source)
            if lsp.destination not in reach[lsp.source]:
                raise ValueError(f"LSP {lsp.id} joins nodes {lsp.source} and "
                                 f"{lsp.destination}, which no fiber path connects")
            if lsp.bandwidth > self.params.C:
                raise ValueError(
                    f"LSP {lsp.id} bandwidth {lsp.bandwidth} exceeds lightpath "
                    f"capacity {self.params.C}; demands must be pre-split")


@dataclass(frozen=True)
class Lightpath:
    """One logical link: the q-th lightpath of a given status between i and j."""

    id: int
    i: Node
    j: Node
    q: int
    status: str  # WORKING (carries wLSPs) | PROTECTION (carries pLSPs)

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
    """Nodes and links that protection routes must avoid.

    The per-LSP maps come from ``compute_exclusion_sets``: ``lsp_nodes``
    drives the protection-LSP logical routing, and ``lsp_phys_nodes`` and
    ``lsp_links`` (each LSP's working physical internals) the physical
    placement of its spare carriers.  The lightpath maps drive the physical
    routing of one phase's lightpaths, keyed by lightpath id:
    ``spare_carrier_exclusions`` fills them for spare carriers and
    ``backup_exclusions`` for optical backups.
    """

    lsp_nodes: dict[int, frozenset[Node]] = field(default_factory=dict)
    lsp_phys_nodes: dict[int, frozenset[Node]] = field(default_factory=dict)
    lsp_links: dict[int, frozenset[Link]] = field(default_factory=dict)
    lightpath_nodes: dict[int, frozenset[Node]] = field(default_factory=dict)
    lightpath_links: dict[int, frozenset[Link]] = field(default_factory=dict)


@dataclass
class ProtectionContext:
    """Fixed working-side facts feeding the protection logical phase.

    ``exclusions`` holds each LSP's sets.  The integrated model alone reads
    its physical internals and ``wavelengths_used``, the wavelengths the
    working lightpaths already hold.
    """

    protected: tuple[LspDemand, ...]
    interface_usage: Mapping[Node, int]
    exclusions: ExclusionSets
    forbidden_groupings: tuple[tuple[tuple[int, Node, Node, int], ...], ...] = ()
    wavelengths_used: Mapping[Link, int] = field(default_factory=dict)


@dataclass
class DecisionVarMap:
    """Semantic index -> model variable id, plus objective stage vectors.

    A model covers one plane, so one map per family suffices: ``beta`` is
    keyed (i, j, q), ``delta`` (k, i, j, q), and ``lam`` (lp, m, n) when
    given lightpaths are routed or (i, j, q, m, n) in the integrated model.
    """

    beta: dict[tuple[Node, Node, int], int] = field(default_factory=dict)
    delta: dict[tuple[int, Node, Node, int], int] = field(default_factory=dict)
    lam: dict[tuple, int] = field(default_factory=dict)
    mpls_objective: dict[int, float] = field(default_factory=dict)
    optical_objective: dict[int, float] = field(default_factory=dict)


def _node_pairs(nodes: Sequence[Node]) -> list[tuple[Node, Node]]:
    s = sorted(nodes)
    return [(a, b) for ai, a in enumerate(s) for b in s[ai + 1:]]


def _ordered_pairs(nodes: Sequence[Node]) -> list[tuple[Node, Node]]:
    s = sorted(nodes)
    return [(a, b) for a in s for b in s if a != b]


# ---------------------------------------------------------------------------
# logical topology design + LSP routing (sequential steps I and II)

def build_logical_design(instance: ProblemInstance, plane: str,
                         context: ProtectionContext | None = None
                         ) -> tuple[MilpModel, DecisionVarMap]:
    """Model for one MPLS-layer phase.

    ``working``: route every LSP and open working-status lightpaths.
    ``protection``: route the protected LSPs over protection-status
    lightpaths, skipping excluded nodes; requires a ProtectionContext.
    Objective: transit-traffic cost plus lightpath cost of the phase.
    """
    if plane not in (WORKING, PROTECTION):
        raise ValueError(f"unknown plane {plane!r}")
    if plane == PROTECTION and context is None:
        raise ValueError("protection phase requires a ProtectionContext")

    topo = instance.topology
    params = instance.params
    costs = instance.unit_costs
    nodes = sorted(topo.nodes)
    pairs = _node_pairs(nodes)
    qs = range(1, params.Q + 1)
    c_cap = float(params.C)
    c_lp = float(costs.c_lp)
    c_tt = float(costs.c_tt)

    model = MilpModel(f"logical-{plane}")
    varmap = DecisionVarMap()
    beta, delta = varmap.beta, varmap.delta

    lsps = instance.traffic if plane == WORKING else context.protected
    excluded: Mapping[int, frozenset[Node]] = (
        context.exclusions.lsp_nodes if plane == PROTECTION else {})

    # one block of columns per family and entity; each block's id list is
    # shared by the varmap and the objective
    beta_keys = [(i, j, q) for (i, j) in pairs for q in qs]
    ids = model.add_variables(naming.beta_block(plane, naming.suffixes(beta_keys)),
                              objective=c_lp)
    beta.update(zip(beta_keys, ids))
    varmap.mpls_objective.update(dict.fromkeys(ids, c_lp))

    # δ[k, i, j, q] is own[position[i, j, q]] in LSP k's block of δ ids, so
    # the rows below index lists instead of hashing a key per term
    hops = [(i, j, q) for (i, j) in _ordered_pairs(nodes) for q in qs]
    position = {key: n for n, key in enumerate(hops)}
    hop_suffixes = naming.suffixes(hops)
    lsp_deltas: list[tuple[LspDemand, float, list[int]]] = []
    for lsp in lsps:
        k = lsp.id
        nex = excluded.get(k, frozenset())
        b = float(lsp.bandwidth)
        transit = c_tt * b
        upper = [0.0 if i in nex or j in nex else 1.0 for (i, j, _q) in hops] if nex else 1.0
        own = model.add_variables(naming.delta_block(plane, k, hop_suffixes),
                                  upper=upper, objective=transit)
        delta.update(zip([(k, i, j, q) for (i, j, q) in hops], own))
        varmap.mpls_objective.update(dict.fromkeys(own, transit))
        lsp_deltas.append((lsp, b, own))

    # flow conservation, eq (9) working / eq (10) protection
    eq_flow = "eq9" if plane == WORKING else "eq10"
    # node i's row terms as (out, back) positions, the same for every LSP
    flow = {i: [(position[(i, j, q)], position[(j, i, q)])
                for j in nodes if j != i for q in qs] for i in nodes}
    for lsp, _, own in lsp_deltas:
        nex = excluded.get(lsp.id, frozenset())
        for i in nodes:
            if i in nex:
                continue
            terms = []
            for out, back in flow[i]:
                terms.append((own[out], 1.0))
                terms.append((own[back], -1.0))
            rhs = 1.0 if i == lsp.source else (-1.0 if i == lsp.destination else 0.0)
            model.add_constraint(f"{eq_flow}[k={lsp.id},i={i}]", terms, "=", rhs)

    # eq (11): a protected LSP crosses each logical link at most once; its
    # working and protection paths can never share a lightpath because the
    # working/protection planes are split into separate entities
    if plane == PROTECTION:
        for lsp in lsps:
            for (i, j) in pairs:
                for q in qs:
                    model.add_constraint(
                        f"eq11[k={lsp.id},i={i},j={j},q={q}]",
                        [(delta[(lsp.id, i, j, q)], 1.0), (delta[(lsp.id, j, i, q)], 1.0)],
                        "<=", 1.0)

    # lightpath capacity, eq (12) working / eq (13) protection
    eq_cap = "eq12" if plane == WORKING else "eq13"
    for (i, j) in pairs:
        for q in qs:
            out, back = position[(i, j, q)], position[(j, i, q)]
            terms: list[tuple[int, float]] = [(beta[(i, j, q)], -c_cap)]
            for _, b, own in lsp_deltas:
                terms.append((own[out], b))
                terms.append((own[back], b))
            model.add_constraint(f"{eq_cap}[i={i},j={j},q={q}]", terms, "<=", 0.0)

    # router interface budget, eqs (7)+(8) (one row per node: every modelled
    # lightpath is bidirectional, so origination and termination coincide)
    usage = context.interface_usage if plane == PROTECTION else {}
    for i in nodes:
        terms = []
        for (a, b_) in pairs:
            if i in (a, b_):
                for q in qs:
                    terms.append((beta[(a, b_, q)], 1.0))
        model.add_constraint(f"eq7[i={i}]", terms, "<=",
                             float(params.T - usage.get(i, 0)))

    # no-good cuts from rejected spare-carrier groupings
    if plane == PROTECTION:
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
                            wavelengths_used: Mapping[Link, int] | None = None,
                            ) -> tuple[MilpModel, DecisionVarMap]:
    """Route each lightpath (or, with ``protection=True``, its protection
    lightpath) over physical links, minimizing wavelength cost.

    Exclusion nodes/links are fixed out of the flow system per entity;
    ``wavelengths_used`` reserves already-committed capacity on each link.
    """
    plane = PROTECTION if protection else WORKING
    c_wl = float(unit_costs.c_wl)
    model = MilpModel(f"lightpath-{plane}")
    varmap = DecisionVarMap()
    lam = varmap.lam
    eq_flow = "eq15" if protection else "eq14"
    arcs = topology.arcs()
    links = sorted(topology.links)
    used = wavelengths_used or {}
    exclusions = exclusions or ExclusionSets()
    nodemap = exclusions.lightpath_nodes
    linkmap = exclusions.lightpath_links

    arc_suffixes = naming.suffixes(arcs)
    for lp in lightpaths:
        ex_nodes = nodemap.get(lp.id, frozenset())
        ex_links = linkmap.get(lp.id, frozenset())
        upper = [0.0 if m in ex_nodes or n in ex_nodes or normalize_link(m, n) in ex_links
                 else 1.0 for (m, n) in arcs] if ex_nodes or ex_links else 1.0
        ids = model.add_variables(naming.lam_block(plane, lp.id, arc_suffixes),
                                  upper=upper, objective=c_wl)
        lam.update(zip([(lp.id, m, n) for (m, n) in arcs], ids))
        varmap.optical_objective.update(dict.fromkeys(ids, c_wl))

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

def build_integrated(instance: ProblemInstance, plane: str,
                     context: ProtectionContext | None = None
                     ) -> tuple[MilpModel, DecisionVarMap]:
    """Joint logical design + lightpath placement in one model.

    The flow of each potential lightpath over physical links is tied to its
    existence variable (eq 18); per-link wavelength budgets apply (eq 20).
    In the protection phase the physical route of a spare-carrying lightpath
    must avoid each passenger's excluded nodes/links, expressed with
    conditional rows (a lightpath arc and a passenger indicator cannot both
    be active), and the working wavelengths of the context are reserved.
    """
    if plane == PROTECTION and context is None:
        raise ValueError("protection phase requires a ProtectionContext")

    model, varmap = build_logical_design(instance, plane, context)
    model.name = f"integrated-{plane}"
    topo = instance.topology
    params = instance.params
    costs = instance.unit_costs
    nodes = sorted(topo.nodes)
    pairs = _node_pairs(nodes)
    qs = range(1, params.Q + 1)
    arcs = topo.arcs()
    used = context.wavelengths_used if context is not None else {}
    c_wl = float(costs.c_wl)

    beta, delta, lam = varmap.beta, varmap.delta, varmap.lam

    arc_suffixes = naming.suffixes(arcs)
    for (i, j) in pairs:
        for q in qs:
            ids = model.add_variables(
                naming.lam_integrated_block(plane, i, j, q, arc_suffixes), objective=c_wl)
            lam.update(zip([(i, j, q, m, n) for (m, n) in arcs], ids))
            varmap.optical_objective.update(dict.fromkeys(ids, c_wl))

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
    for (m, n) in sorted(topo.links):
        terms = []
        for (i, j) in pairs:
            for q in qs:
                terms.append((lam[(i, j, q, m, n)], 1.0))
                terms.append((lam[(i, j, q, n, m)], 1.0))
        model.add_constraint(f"eq20[m={m},n={n}]", terms, "<=",
                             float(topo.W - used.get((m, n), 0)))

    # conditional physical exclusions for spare-carrying lightpaths
    if plane == PROTECTION:
        for lsp in context.protected:
            nex = context.exclusions.lsp_phys_nodes.get(lsp.id, frozenset())
            lex = context.exclusions.lsp_links.get(lsp.id, frozenset())
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

def compute_exclusion_sets(instance: ProblemInstance, mode: SurvivabilityMode,
                           lsp_logical_nodes: Mapping[int, tuple[Node, ...]],
                           lsp_lightpaths: Mapping[int, tuple[int, ...]],
                           lightpath_routes: Mapping[int, tuple[Node, ...]]
                           ) -> ExclusionSets:
    """Each LSP's exclusion sets under the mode's rules, from its working
    logical route and the physical routes of its working lightpaths.

    * protection-LSP logical routing avoids the working LSP's logical transit
      nodes; the two multilayer variants without optical protection of spare
      carriers additionally avoid the physical transit nodes of the working
      LSP's lightpaths (an OXC failure must not take out both paths);
    * in the modes whose LSP pairs are physically disjoint, each LSP's
      working physical internals, the nodes (bar its endpoints) and links of
      those routes, are ``lsp_phys_nodes``/``lsp_links``.

    The step IV rules are ``backup_exclusions``.
    """
    result = ExclusionSets()
    physical = bool(lightpath_routes) and mode.plsp_physically_disjoint
    physical_transit = mode in (SurvivabilityMode.ML_SPARE_UNPROTECTED,
                                SurvivabilityMode.ML_INTERLAYER_BRS)
    ends = {lsp.id: (lsp.source, lsp.destination) for lsp in instance.traffic}
    for k, logical in lsp_logical_nodes.items():
        transit = frozenset(logical[1:-1])
        result.lsp_nodes[k] = transit
        if not physical:
            continue
        # logical hop points are on the physical path too
        nodes = set(logical)
        links: set[Link] = set()
        for lp in lsp_lightpaths.get(k, ()):
            if lp in lightpath_routes:
                nodes.update(lightpath_routes[lp])
                links.update(route_links(lightpath_routes[lp]))
        phys_nodes = frozenset(nodes.difference(ends[k]))
        if physical_transit:
            result.lsp_nodes[k] = transit | phys_nodes
        result.lsp_phys_nodes[k] = phys_nodes
        result.lsp_links[k] = frozenset(links)
    return result


def spare_carrier_exclusions(exclusions: ExclusionSets,
                             carriers: Mapping[object, Sequence[int]]) -> ExclusionSets:
    """Exclusions of spare carriers: each lightpath that carries protection
    LSPs avoids the union of its passengers' working physical internals.

    ``carriers`` maps a carrier (a lightpath id, or any key that names one)
    to its passengers' LSP ids; the result's lightpath maps use its keys.
    """
    result = ExclusionSets()
    for key, passengers in carriers.items():
        result.lightpath_nodes[key] = frozenset().union(
            *(exclusions.lsp_phys_nodes.get(k, frozenset()) for k in passengers))
        result.lightpath_links[key] = frozenset().union(
            *(exclusions.lsp_links.get(k, frozenset()) for k in passengers))
    return result


def backup_exclusions(mode: SurvivabilityMode, to_protect: Sequence[Lightpath],
                      lightpath_routes: Mapping[int, tuple[Node, ...]],
                      lsp_logical_nodes: Mapping[int, tuple[Node, ...]],
                      lsp_plps: Mapping[int, tuple[int, ...]]) -> ExclusionSets:
    """Exclusions of the step IV optical backups of ``to_protect``.

    Each backup avoids the transit nodes and the links of the route it
    protects (link disjointness, eq 16).  Under interlayer BRS a lightpath
    transiting an OXC and the LSPs transiting the co-located router must be
    protected on different physical links, so their restorations never
    compete for one shared wavelength: the backup also avoids every link of
    those LSPs' protection lightpaths.
    """
    result = ExclusionSets(
        lightpath_nodes={lp.id: frozenset(lightpath_routes[lp.id][1:-1])
                         for lp in to_protect},
        lightpath_links={lp.id: route_links(lightpath_routes[lp.id])
                         for lp in to_protect})
    if mode is not SurvivabilityMode.ML_INTERLAYER_BRS:
        return result
    transit_lsps: dict[Node, list[int]] = {}
    for k, seq in lsp_logical_nodes.items():
        if k in lsp_plps:
            for x in seq[1:-1]:
                transit_lsps.setdefault(x, []).append(k)
    for lp in to_protect:
        banned: set[Link] = set()
        for x in lightpath_routes[lp.id][1:-1]:
            for k in transit_lsps.get(x, ()):
                for plp in lsp_plps[k]:
                    banned |= route_links(lightpath_routes[plp])
        result.lightpath_links[lp.id] |= banned
    return result


# ---------------------------------------------------------------------------
# size estimates and audit

def estimate_problem_size_raw(n_nodes: int, k_lsps: int, q: int,
                              approach: Approach, n_links: int = 0) -> int:
    """Closed-form variable-count estimate (an estimate, not an exact count)."""
    base = q * n_nodes * n_nodes * k_lsps / 2
    if approach is Approach.INTEGRATED:
        base += q * n_nodes * n_nodes * n_links
    return int(round(base))


def estimate_problem_size(instance: ProblemInstance, approach: Approach) -> int:
    return estimate_problem_size_raw(instance.topology.n, len(instance.traffic),
                                     instance.params.Q, approach,
                                     len(instance.topology.links))


def audit_model(model: MilpModel) -> str:
    """Per-equation-family constraint counts, one line each."""
    counts: dict[str, int] = {}
    for name in model.row_names:
        family = name.split("[", 1)[0]
        counts[family] = counts.get(family, 0) + 1
    lines = [f"{model.name}: {len(model.names)} variables, "
             f"{len(model.row_names)} constraints"]
    for family in sorted(counts):
        lines.append(f"  {family}: {counts[family]}")
    return "\n".join(lines) + "\n"
