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

from collections.abc import ItemsView, Iterable, Mapping, Sequence, ValuesView
from dataclasses import dataclass, field
from itertools import chain

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
    "ColumnFamily",
    "StageCosts",
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


class _BlockView(Mapping):
    """A read-only map over blocks of consecutive column ids.  ``items``
    and ``values`` walk the blocks instead of looking each key up."""

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)


class _Items(ItemsView):
    def __iter__(self):
        return self._mapping._items()


class _Values(ValuesView):
    def __iter__(self):
        return self._mapping._values()


class ColumnFamily(_BlockView):
    """Key -> column id of one variable family, without a key per column.

    Each entity owns one block of consecutive ids, one per hop of a table
    that all its blocks share, ``position`` (hop -> place in the block).
    A key is the entity's ``width`` items followed by a hop, and its id is
    the first id of the entity's block plus ``position[hop]``.  Any other
    key, whatever its length or type, raises ``KeyError``, so ``in`` and
    ``get`` answer as a dict would.  Keys iterate in id order.
    """

    def __init__(self, hops: Sequence[tuple] = (), width: int = 0):
        self.position = {hop: p for p, hop in enumerate(hops)}
        self._width = width
        self._size = width + len(hops[0]) if hops else -1
        self._first: dict[tuple, int] = {}

    def add(self, entity: tuple, ids: Sequence[int]) -> None:
        """Record the block ``add_variables`` returned for ``entity``: one
        id per hop, in table order."""
        if ids:
            self._first[entity] = ids[0]

    def __getitem__(self, key) -> int:
        if isinstance(key, tuple) and len(key) == self._size:
            first = self._first.get(key[:self._width])
            p = self.position.get(key[self._width:])
            if first is not None and p is not None:
                return first + p
        raise KeyError(key)

    def __len__(self) -> int:
        return len(self._first) * len(self.position)

    def __iter__(self):
        return (entity + hop for entity in self._first for hop in self.position)

    def _items(self):
        n = len(self.position)
        for entity, first in self._first.items():
            yield from zip([entity + hop for hop in self.position], range(first, first + n))

    def _values(self):
        n = len(self.position)
        return chain.from_iterable(range(first, first + n) for first in self._first.values())


class StageCosts(_BlockView):
    """Column id -> cost of one stage objective over a range of consecutive
    ids, from a copy of the costs taken when the model was built: a staged
    solve replaces ``model.objective`` and leaves these as they were."""

    def __init__(self, first: int = 0, costs: Sequence[float] = ()):
        self._costs = costs
        self._ids = range(first, first + len(self._costs))

    def __getitem__(self, vid) -> float:
        if isinstance(vid, int) and vid in self._ids:
            return self._costs[vid - self._ids.start]
        raise KeyError(vid)

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter(self._ids)

    def _items(self):
        return zip(self._ids, self._costs)

    def _values(self):
        return iter(self._costs)


@dataclass
class DecisionVarMap:
    """Semantic index -> model variable id, plus objective stage vectors.

    A model covers one plane, so one family per letter suffices: ``beta`` is
    keyed (i, j, q), ``delta`` (k, i, j, q), and ``lam`` (lp, m, n) when
    given lightpaths are routed or (i, j, q, m, n) in the integrated model.
    Each is a ``ColumnFamily`` over the blocks the builder added, and each
    objective a ``StageCosts``; a model without a family leaves it empty.
    """

    beta: ColumnFamily = field(default_factory=ColumnFamily)
    delta: ColumnFamily = field(default_factory=ColumnFamily)
    lam: ColumnFamily = field(default_factory=ColumnFamily)
    mpls_objective: StageCosts = field(default_factory=StageCosts)
    optical_objective: StageCosts = field(default_factory=StageCosts)


def _node_pairs(nodes: Sequence[Node]) -> list[tuple[Node, Node]]:
    s = sorted(nodes)
    return [(a, b) for ai, a in enumerate(s) for b in s[ai + 1:]]


def _ordered_pairs(nodes: Sequence[Node]) -> list[tuple[Node, Node]]:
    s = sorted(nodes)
    return [(a, b) for a in s for b in s if a != b]


def _arc_positions(topology: PhysicalTopology) -> dict[Node, list[int]]:
    """Each node's flow-row terms as positions in a block of columns, one
    per arc of ``topology.arcs()``: the arc out to each neighbour, then the
    one back from it, by ascending neighbour.  ``arcs()`` puts the l-th
    sorted link (a, b), a < b, at positions 2l (a -> b) and 2l + 1, and the
    links that meet a node, in sorted order, reach its neighbours in
    ascending order."""
    flow: dict[Node, list[int]] = {n: [] for n in sorted(topology.nodes)}
    for l, (a, b) in enumerate(sorted(topology.links)):
        flow[a] += (2 * l, 2 * l + 1)
        flow[b] += (2 * l + 1, 2 * l)
    return flow


def _link_budgets(model: MilpModel, family: str, topology: PhysicalTopology,
                  used: Mapping[Link, int], blocks: Sequence[Sequence[int]]) -> None:
    """One block of wavelength rows, a row per link: each lightpath's block
    of arc columns, at the link's two arcs (``_arc_positions``), fits into
    the W wavelengths less those ``used`` already."""
    links = sorted(topology.links)
    model.add_rows([f"{family}[m={m},n={n}]" for (m, n) in links], "<=",
                   [float(topology.W - used.get(link, 0)) for link in links],
                   [2 * len(blocks)] * len(links),
                   [x for l in range(len(links)) for ids in blocks for x in ids[2 * l:2 * l + 2]],
                   1.0)


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
    The varmap holds the ``beta`` block, one ``delta`` block per LSP and,
    as ``mpls_objective``, the costs of all of them.
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

    lsps = instance.traffic if plane == WORKING else context.protected
    excluded: Mapping[int, frozenset[Node]] = (
        context.exclusions.lsp_nodes if plane == PROTECTION else {})

    # one block of columns per family and entity; a family keeps the first
    # id of each block, and the objective copies the costs of all of them
    beta_keys = [(i, j, q) for (i, j) in pairs for q in qs]
    beta = ColumnFamily(beta_keys)
    beta_ids = model.add_variables(naming.beta_block(plane, naming.suffixes(beta_keys)),
                                   objective=c_lp)
    beta.add((), beta_ids)

    # δ[k, i, j, q] is own[position[i, j, q]] in LSP k's block of δ ids, so
    # the rows below index lists instead of hashing a key per term
    hops = [(i, j, q) for (i, j) in _ordered_pairs(nodes) for q in qs]
    delta = ColumnFamily(hops, 1)
    position = delta.position
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
        delta.add((k,), own)
        lsp_deltas.append((lsp, b, own))

    # flow conservation, eq (9) working / eq (10) protection: one block of
    # rows per LSP.  Node i's row takes +δ out of i and −δ back into i for
    # every hop (i, j, q), at the same positions of every LSP's δ block.
    eq_flow = "eq9" if plane == WORKING else "eq10"
    flow = {i: [p for j in nodes if j != i for q in qs
                for p in (position[(i, j, q)], position[(j, i, q)])] for i in nodes}
    every_node = list(chain.from_iterable(flow.values()))
    row_length = 2 * (len(nodes) - 1) * params.Q
    for lsp, _, own in lsp_deltas:
        nex = excluded.get(lsp.id, frozenset())
        rows = [i for i in nodes if i not in nex] if nex else nodes
        positions = chain.from_iterable(map(flow.__getitem__, rows)) if nex else every_node
        indices = list(map(own.__getitem__, positions))
        model.add_rows([f"{eq_flow}[k={lsp.id},i={i}]" for i in rows], "=",
                       [1.0 if i == lsp.source else -1.0 if i == lsp.destination else 0.0
                        for i in rows],
                       [row_length] * len(rows), indices, [1.0, -1.0] * (len(indices) // 2))

    # eq (11): a protected LSP crosses each logical link at most once; its
    # working and protection paths can never share a lightpath because the
    # working/protection planes are split into separate entities
    if plane == PROTECTION:
        tags = [f",i={i},j={j},q={q}]" for (i, j, q) in beta_keys]
        both_ways = [p for (i, j, q) in beta_keys
                     for p in (position[(i, j, q)], position[(j, i, q)])]
        for lsp, _, own in lsp_deltas:
            model.add_rows([f"eq11[k={lsp.id}{tag}" for tag in tags], "<=", 1.0,
                           [2] * len(tags), list(map(own.__getitem__, both_ways)), 1.0)

    # lightpath capacity, eq (12) working / eq (13) protection: one block,
    # a row per lightpath over its β and every LSP's δ both ways, all rows
    # with the same coefficients.  Every LSP's δ block holds one id per hop,
    # so with the blocks laid end to end a hop's ids over all LSPs are one
    # strided slice, and a row interleaves the slices of its two directions.
    eq_cap = "eq12" if plane == WORKING else "eq13"
    capacity = [-c_cap] + [b for _, b, _ in lsp_deltas for _ in (0, 1)]
    deltas = list(chain.from_iterable(own for _, _, own in lsp_deltas))
    both = [0] * (2 * len(lsp_deltas))
    indices = []
    for (i, j, q), beta_id in zip(beta_keys, beta_ids):
        both[::2] = deltas[position[(i, j, q)]::len(hops)]
        both[1::2] = deltas[position[(j, i, q)]::len(hops)]
        indices.append(beta_id)
        indices += both
    model.add_rows([f"{eq_cap}[i={i},j={j},q={q}]" for (i, j, q) in beta_keys], "<=", 0.0,
                   [len(capacity)] * len(beta_keys), indices, capacity * len(beta_keys))

    # router interface budget, eqs (7)+(8) (one row per node: every modelled
    # lightpath is bidirectional, so origination and termination coincide)
    usage = context.interface_usage if plane == PROTECTION else {}
    ends: dict[Node, list[int]] = {i: [] for i in nodes}
    for (i, j, _q), beta_id in zip(beta_keys, beta_ids):
        ends[i].append(beta_id)
        ends[j].append(beta_id)
    model.add_rows([f"eq7[i={i}]" for i in nodes], "<=",
                   [float(params.T - usage.get(i, 0)) for i in nodes],
                   list(map(len, ends.values())), list(chain.from_iterable(ends.values())), 1.0)

    # no-good cuts from rejected spare-carrier groupings
    groupings = context.forbidden_groupings if plane == PROTECTION else ()
    if groupings:
        model.add_rows([f"cut[g={gi}]" for gi in range(len(groupings))], "<=",
                       [float(len(grouping) - 1) for grouping in groupings],
                       [2 * len(grouping) for grouping in groupings],
                       [delta[key] for grouping in groupings for (k, i, j, q) in grouping
                        for key in ((k, i, j, q), (k, j, i, q))], 1.0)

    return model, DecisionVarMap(beta, delta, mpls_objective=StageCosts(0, model.objective[:]))


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
    The varmap holds one ``lam`` block per lightpath, laid out by
    ``topology.arcs()``, and their costs as ``optical_objective``.
    """
    plane = PROTECTION if protection else WORKING
    c_wl = float(unit_costs.c_wl)
    model = MilpModel(f"lightpath-{plane}")
    eq_flow = "eq15" if protection else "eq14"
    arcs = topology.arcs()
    used = wavelengths_used or {}
    exclusions = exclusions or ExclusionSets()
    nodemap = exclusions.lightpath_nodes
    linkmap = exclusions.lightpath_links

    arc_suffixes = naming.suffixes(arcs)
    flow = _arc_positions(topology)
    lam = ColumnFamily(arcs, 1)
    blocks: list[list[int]] = []
    for lp in lightpaths:
        ex_nodes = nodemap.get(lp.id, frozenset())
        ex_links = linkmap.get(lp.id, frozenset())
        upper = [0.0 if m in ex_nodes or n in ex_nodes or normalize_link(m, n) in ex_links
                 else 1.0 for (m, n) in arcs] if ex_nodes or ex_links else 1.0
        ids = model.add_variables(naming.lam_block(plane, lp.id, arc_suffixes),
                                  upper=upper, objective=c_wl)
        lam.add((lp.id,), ids)
        blocks.append(ids)

        # one block of flow rows per lightpath; a node without links whose
        # row would read 0 = 0 gets none
        rows = [n for n in flow if n not in ex_nodes and (flow[n] or n in (lp.i, lp.j))]
        indices = [ids[p] for n in rows for p in flow[n]]
        model.add_rows([f"{eq_flow}[lp={lp.id},n={n}]" for n in rows], "=",
                       [1.0 if n == lp.i else -1.0 if n == lp.j else 0.0 for n in rows],
                       [len(flow[n]) for n in rows], indices, [1.0, -1.0] * (len(indices) // 2))

    # eq (17): one block, a row per link over every lightpath's arcs both ways
    _link_budgets(model, "eq17", topology, used, blocks)
    return model, DecisionVarMap(lam=lam, optical_objective=StageCosts(0, model.objective[:]))


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
    The varmap is that of ``build_logical_design`` plus one ``lam`` block
    per (i, j, q), in the order of ``beta``, and their costs as
    ``optical_objective``.
    """
    if plane == PROTECTION and context is None:
        raise ValueError("protection phase requires a ProtectionContext")

    model, varmap = build_logical_design(instance, plane, context)
    model.name = f"integrated-{plane}"
    topo = instance.topology
    arcs = topo.arcs()
    used = context.wavelengths_used if context is not None else {}
    c_wl = float(instance.unit_costs.c_wl)

    # one block of λ columns per lightpath (i, j, q), in the order of β
    delta = varmap.delta
    lam = varmap.lam = ColumnFamily(arcs, 3)
    arc_suffixes = naming.suffixes(arcs)
    keys = list(varmap.beta)
    first = len(model.names)
    blocks: list[list[int]] = []
    for key in keys:
        ids = model.add_variables(naming.lam_integrated_block(plane, *key, arc_suffixes),
                                  objective=c_wl)
        lam.add(key, ids)
        blocks.append(ids)
    varmap.optical_objective = StageCosts(first, model.objective[first:])

    # eq (18): lightpath-level flow conservation tied to the existence
    # binary, one block of rows per (i, j, q); a node without links other
    # than i and j gets no row
    flow = _arc_positions(topo)
    for (i, j, q), ids, beta_id in zip(keys, blocks, varmap.beta.values()):
        rows = [n for n in flow if flow[n] or n in (i, j)]
        indices: list[int] = []
        coefs: list[float] = []
        for n in rows:
            indices += map(ids.__getitem__, flow[n])
            coefs += [1.0, -1.0] * (len(flow[n]) // 2)
            if n in (i, j):
                indices.append(beta_id)
                coefs.append(-1.0 if n == i else 1.0)
        model.add_rows([f"eq18[i={i},j={j},q={q},n={n}]" for n in rows], "=", 0.0,
                       [len(flow[n]) + (n in (i, j)) for n in rows], indices, coefs)

    # eq (20): per-link wavelength budget
    _link_budgets(model, "eq20", topo, used, blocks)

    # conditional physical exclusions for spare-carrying lightpaths, one
    # block of rows per LSP: a row per lightpath and banned arc
    if plane == PROTECTION:
        for lsp in context.protected:
            nex = context.exclusions.lsp_phys_nodes.get(lsp.id, frozenset())
            lex = context.exclusions.lsp_links.get(lsp.id, frozenset())
            banned = [p for p, (m, n) in enumerate(arcs)
                      if m in nex or n in nex or normalize_link(m, n) in lex]
            if not banned:
                continue
            names: list[str] = []
            indices = []
            for (i, j, q), ids in zip(keys, blocks):
                d1, d2 = delta[(lsp.id, i, j, q)], delta[(lsp.id, j, i, q)]
                for p in banned:
                    m, n = arcs[p]
                    names.append(f"exc[k={lsp.id},i={i},j={j},q={q},m={m},n={n}]")
                    indices += (ids[p], d1, d2)
            model.add_rows(names, "<=", 1.0, [3] * len(names), indices, 1.0)
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
