"""Domain model: physical topology, traffic, system parameters and the cost model.

Conventions used throughout the package:

* Traffic demands and lightpaths are bidirectional and symmetric, so every
  demand and every lightpath is modelled once as an undirected entity.  All
  capacity counts refer to one direction; reports label them as
  bidirectional pairs.
* Bandwidths and unit costs are exact rationals (`fractions.Fraction`) so
  that splitting demands conserves bandwidth exactly and cost identities
  reproduce published figures without float drift.  Values are converted to
  floats only at the solver boundary.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .milp.model import FEASIBILITY_TOL

Node = int
Link = tuple[Node, Node]

__all__ = [
    "PhysicalTopology",
    "LspDemand",
    "SystemParams",
    "CostRatios",
    "UnitCosts",
    "TopologyReport",
    "COST_RATIO_PRESETS",
    "as_gbps",
    "validate_topology",
    "reachable",
    "articulation_points",
    "average_connectivity",
    "generate_topology",
    "derive_unit_costs",
    "split_demands",
    "default_interface_limit",
    "route_links",
]


def as_gbps(value, what: str = "bandwidth") -> Fraction:
    """Convert a bandwidth given as int/float/str/Fraction to an exact Fraction.

    Floats are routed through ``str`` so `0.5` means the decimal 0.5, not its
    binary approximation.  Anything else, a boolean included, is a
    ValueError naming ``what``.
    """
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, bool):
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{what} must be a number, not {value!r}")


def normalize_link(a: Node, b: Node) -> Link:
    return (a, b) if a <= b else (b, a)


def route_links(route: Sequence[Node]) -> frozenset[Link]:
    """The links a node walk traverses."""
    return frozenset(normalize_link(a, b) for a, b in zip(route, route[1:]))


def _whole_number(name: str, value) -> int:
    """``value`` as an int; a fractional or non-numeric value is an error,
    not truncated."""
    try:
        if int(value) == value and not isinstance(value, bool):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _require_node_id(what: str, value) -> None:
    """A node id is an int and not a boolean; anything else is a ValueError
    naming ``what``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer node id, not {value!r}")


@dataclass(frozen=True)
class PhysicalTopology:
    """Nodes and bidirectional fiber links; W wavelengths available per link.

    Each node is a combined router + OXC site.  The graph is simple: node ids
    are distinct integers (not booleans), and each link joins two distinct
    declared nodes and is declared once.  Links are stored as ordered (low,
    high) pairs in input order.
    """

    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    W: int = 32
    _adjacency: dict[Node, tuple[Node, ...]] = field(
        init=False, repr=False, compare=False)
    _arcs: tuple[tuple[Node, Node], ...] = field(init=False, repr=False, compare=False)

    def __init__(self, nodes: Iterable[Node], links: Iterable[Sequence[Node]], W: int = 32):
        adjacency: dict[Node, list[Node]] = {}
        for index, v in enumerate(nodes):
            _require_node_id(f"nodes entry {index}", v)
            if v in adjacency:
                raise ValueError(f"node {v} is declared more than once")
            adjacency[v] = []
        declared: list[Link] = []
        for link in links:
            try:
                a, b = link
            except (TypeError, ValueError):
                raise ValueError(f"link {link!r} must be a pair of nodes [a, b]") from None
            for v in (a, b):
                _require_node_id(f"an end of link {link!r}", v)
            if a == b or a not in adjacency or b not in adjacency:
                raise ValueError(f"link ({a},{b}) must join two distinct declared nodes")
            link = normalize_link(a, b)
            if b in adjacency[a]:
                raise ValueError(f"link ({link[0]},{link[1]}) is declared more than once")
            adjacency[a].append(b)
            adjacency[b].append(a)
            declared.append(link)
        object.__setattr__(self, "nodes", tuple(adjacency))
        object.__setattr__(self, "links", tuple(declared))
        object.__setattr__(self, "W", _whole_number("W", W))
        object.__setattr__(self, "_adjacency",
                           {v: tuple(sorted(ws)) for v, ws in adjacency.items()})
        object.__setattr__(self, "_arcs", tuple(arc for a, b in sorted(declared)
                                                for arc in ((a, b), (b, a))))
        if self.W <= 0:
            raise ValueError("W must be positive")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def neighbors(self, node: Node) -> tuple[Node, ...]:
        return self._adjacency[node]

    def arcs(self) -> tuple[tuple[Node, Node], ...]:
        """Both orientations of every link, in sorted link order."""
        return self._arcs


@dataclass(frozen=True)
class LspDemand:
    """An indivisible traffic flow: one element of the LSP set."""

    id: int
    source: Node
    destination: Node
    bandwidth: Fraction

    def __post_init__(self):
        if self.source == self.destination:
            raise ValueError(f"LSP {self.id}: source equals destination ({self.source})")
        if self.bandwidth <= 0:
            raise ValueError(f"LSP {self.id}: bandwidth must be positive")


def default_interface_limit(n_nodes: int, q_max: int) -> int:
    """Default router interface budget: 2·Q·(N−1)."""
    return 2 * q_max * (n_nodes - 1)


@dataclass(frozen=True)
class SystemParams:
    """Dimensioning limits: lightpath capacity C, multiplicity Q, router
    interface budget T.  The wavelengths per link, W, belong to the
    topology."""

    C: Fraction
    Q: int
    T: int

    def __init__(self, C=10, Q: int = 2, T: int | None = None, n_nodes: int | None = None):
        object.__setattr__(self, "C", as_gbps(C, "C"))
        object.__setattr__(self, "Q", _whole_number("Q", Q))
        if T is None:
            if n_nodes is None:
                raise ValueError("either T or n_nodes is required")
            if n_nodes < 2:
                raise ValueError(f"T defaults to 2·Q·(N−1), which needs at least 2 nodes; "
                                 f"the instance has {n_nodes} and gives no T")
            T = default_interface_limit(n_nodes, self.Q)
        object.__setattr__(self, "T", _whole_number("T", T))
        if self.Q not in (1, 2):
            raise ValueError(f"Q must be 1 or 2, got {self.Q}")
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")


@dataclass(frozen=True)
class CostRatios:
    """Per-element costs: transponder, IP/optical interface card, OXC port."""

    c_tr: Fraction
    c_p_ip: Fraction
    c_p_oxc: Fraction
    label: str = "custom"

    def __init__(self, c_tr, c_p_ip, c_p_oxc, label: str = "custom"):
        object.__setattr__(self, "c_tr", as_gbps(c_tr, "cost ratio c_TR"))
        object.__setattr__(self, "c_p_ip", as_gbps(c_p_ip, "cost ratio c_P_IP"))
        object.__setattr__(self, "c_p_oxc", as_gbps(c_p_oxc, "cost ratio c_P_OXC"))
        object.__setattr__(self, "label", label)
        if min(self.c_tr, self.c_p_ip, self.c_p_oxc) < 0:
            raise ValueError("element costs must be non-negative")


COST_RATIO_PRESETS: Mapping[str, CostRatios] = {
    "CR1": CostRatios("1", "8", "0.5", label="CR1"),
    "CR2": CostRatios("8", "0.5", "1", label="CR2"),
    "CR3": CostRatios("0.5", "1", "8", label="CR3"),
}


@dataclass(frozen=True)
class UnitCosts:
    """Derived circuit costs: lightpath, wavelength link, transit per Gbps."""

    c_lp: Fraction
    c_wl: Fraction
    c_tt: Fraction


def derive_unit_costs(ratios: CostRatios, C) -> UnitCosts:
    """A lightpath needs 2 interface cards + 2 OXC ports; a wavelength link
    needs 2 OXC ports + 2 transponders; transit is charged at the interface
    cost per capacity unit."""
    cap = as_gbps(C, "C")
    if cap <= 0:
        raise ValueError("C must be positive")
    unit = UnitCosts(
        c_lp=2 * (ratios.c_p_ip + ratios.c_p_oxc),
        c_wl=2 * (ratios.c_p_oxc + ratios.c_tr),
        c_tt=ratios.c_p_ip / cap,
    )
    # the solver works in floats
    for name in ("c_lp", "c_wl", "c_tt"):
        try:
            finite = math.isfinite(float(getattr(unit, name)))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"unit cost {name} derived from the cost ratio is too large "
                             f"for a float; scale the cost ratio down")
    return unit


@dataclass(frozen=True)
class TopologyReport:
    ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)


def reachable(topology: PhysicalTopology, source: Node,
              avoid_nodes: frozenset[Node] = frozenset(),
              avoid_links: frozenset[Link] = frozenset()) -> set[Node]:
    """The nodes that ``source`` reaches over links that neither touch a node
    of ``avoid_nodes`` nor belong to ``avoid_links``; empty when ``source``
    itself is avoided."""
    if source in avoid_nodes:
        return set()
    seen = {source}
    stack = [source]
    while stack:
        v = stack.pop()
        for w in topology.neighbors(v):
            if (w not in seen and w not in avoid_nodes
                    and normalize_link(v, w) not in avoid_links):
                seen.add(w)
                stack.append(w)
    return seen


def articulation_points(topology: PhysicalTopology) -> tuple[Node, ...]:
    """Articulation nodes: x is one when its neighbours are not all in one
    component of G − x."""
    arts = []
    for x in topology.nodes:
        ws = topology.neighbors(x)
        if len(ws) > 1 and not set(ws) <= reachable(topology, ws[0], frozenset({x})):
            arts.append(x)
    return tuple(sorted(arts))


def validate_topology(topology: PhysicalTopology) -> TopologyReport:
    """Report loss of bi-connectivity: a disconnected graph, else its
    articulation nodes.  Violations are data, not failures; the constructor
    has already rejected anything that is not a simple graph."""
    violations: list[str] = []
    if topology.nodes and len(reachable(topology, topology.nodes[0])) < topology.n:
        violations.append("not bi-connected: graph is disconnected")
    else:
        arts = articulation_points(topology)
        if arts:
            names = ", ".join(str(a) for a in arts)
            violations.append(f"not bi-connected: articulation node(s) {names}")
    return TopologyReport(ok=not violations, violations=tuple(violations))


def average_connectivity(topology: PhysicalTopology) -> Fraction:
    """Average node degree 2·E/N."""
    if topology.n == 0:
        raise ValueError("empty topology")
    return Fraction(2 * len(topology.links), topology.n)


def generate_topology(n: int, connectivity, seed: int, W: int = 32) -> PhysicalTopology:
    """Random bi-connected topology with round(n·d̄/2) links.

    A random Hamiltonian cycle guarantees bi-connectivity at d̄ = 2; uniformly
    random chords are then added (rejecting duplicates) until the target link
    count.  For a fixed seed the chord stream is a prefix of the stream drawn
    for any larger target, so topologies at increasing d̄ nest.
    """
    dbar = as_gbps(connectivity, "connectivity")
    if n < 3:
        raise ValueError("need at least 3 nodes")
    if dbar < 2 or dbar > n - 1:
        raise ValueError(f"connectivity must lie in [2, {n - 1}], got {dbar}")
    target = int(round(n * float(dbar) / 2))
    max_links = n * (n - 1) // 2
    target = min(target, max_links)

    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    links: list[Link] = []
    have: set[Link] = set()
    for i in range(n):
        link = normalize_link(order[i], order[(i + 1) % n])
        links.append(link)
        have.add(link)
    while len(links) < target:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        link = normalize_link(a, b)
        if link in have:
            continue
        links.append(link)
        have.add(link)
    return PhysicalTopology(nodes=range(n), links=links, W=W)


def split_demands(demands: Iterable, C,
                  max_lightpaths: int | None = None) -> tuple[LspDemand, ...]:
    """Split each demand into ceil(b/C) equal-bandwidth LSPs.

    Accepts (s, d, b) tuples or lists, {"s":, "d":, "b":} mappings, or
    LspDemand objects; anything else raises ValueError naming the demand's
    index.  Bandwidth is conserved exactly.  When at most ``max_lightpaths``
    lightpaths can end at a node, a demand above ``max_lightpaths``·C can
    never be carried, and it is rejected before it is split.  So is a
    demand within the solver's feasibility tolerance, which a capacity row
    b·δ <= C·β holds with no lightpath open.
    """
    cap = as_gbps(C, "C")
    if cap <= 0:
        raise ValueError("C must be positive")
    out: list[LspDemand] = []
    next_id = 0
    for index, item in enumerate(demands):
        if isinstance(item, Mapping) and {"s", "d", "b"} <= item.keys():
            s, d, b = item["s"], item["d"], item["b"]
        elif isinstance(item, LspDemand):
            s, d, b = item.source, item.destination, item.bandwidth
        elif isinstance(item, (list, tuple)) and len(item) == 3:
            s, d, b = item
        else:
            raise ValueError(f"demand {index} must be an object with s, d and b, "
                             f"or a list [s, d, b], not {item!r}")
        _require_node_id(f"demand {index} s", s)
        _require_node_id(f"demand {index} d", d)
        bw = as_gbps(b, f"demand {index} bandwidth")
        if bw <= 0:
            raise ValueError(f"demand ({s},{d}) has non-positive bandwidth")
        if float(bw) <= FEASIBILITY_TOL:
            raise ValueError(f"demand {index} ({s},{d}) of {b} Gbps is within the solver's "
                             f"feasibility tolerance {FEASIBILITY_TOL}: its capacity rows "
                             f"would hold with no lightpath open")
        if max_lightpaths is not None and bw > max_lightpaths * cap:
            raise ValueError(f"demand {index} ({s},{d}) of {b} Gbps exceeds "
                             f"{max_lightpaths * cap} Gbps: at most {max_lightpaths} "
                             f"lightpaths of capacity {cap} can end at a node")
        parts = int(-(-bw // cap))  # ceil for Fractions
        share = bw / parts
        for _ in range(parts):
            out.append(LspDemand(id=next_id, source=s, destination=d, bandwidth=share))
            next_id += 1
    return tuple(out)
