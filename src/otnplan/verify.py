"""Failure simulation and rule checking: exhaustive single-failure scenarios,
restorability accounting, and literal disjointness verification.

The checks re-read routes as plain node/link sets and never consult the
optimization machinery, so they stand as an independent referee over planner
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .modes import SurvivabilityMode
from .netmodel import Link, Node, route_links
from .planner import NetworkConfiguration

__all__ = [
    "FailureScenario",
    "ScenarioOutcome",
    "RestorabilityReport",
    "enumerate_failures",
    "check_restorability",
    "check_disjointness",
]


@dataclass(frozen=True)
class FailureScenario:
    kind: str  # "physical-link" | "node" | "ip-optical-interface"
    target: tuple

    def label(self) -> str:
        if self.kind == "physical-link":
            return f"link({self.target[0]},{self.target[1]})"
        if self.kind == "node":
            return f"node({self.target[0]})"
        return f"interface(lp={self.target[0]}@{self.target[1]})"

    def hits(self, walk: Sequence[Node], lightpath_ids: Iterable[int]) -> bool:
        """Whether this failure cuts a path over the physical ``walk`` that
        rides the lightpaths ``lightpath_ids``.  A failed node kills every
        walk through it, end or transit.  An interface failure kills only
        the lightpaths it belongs to: a protection lightpath reaches to the
        optical line cards, so ``hits(backup, ())`` is false for it."""
        if self.kind == "physical-link":
            return self.target in route_links(walk)
        if self.kind == "node":
            return self.target[0] in walk
        return self.target[0] in lightpath_ids


@dataclass(frozen=True)
class ScenarioOutcome:
    scenario: FailureScenario
    affected: tuple[int, ...]
    recovered: tuple[int, ...]
    exempt: tuple[int, ...]
    failed: tuple[int, ...]
    contention: tuple[str, ...] = ()


@dataclass(frozen=True)
class RestorabilityReport:
    outcomes: tuple[ScenarioOutcome, ...]
    restorability: Fraction
    contention_count: int

    @property
    def fully_restorable(self) -> bool:
        return self.restorability == 1 and self.contention_count == 0

    def render(self) -> str:
        lines = []
        for out in self.outcomes:
            lines.append(
                f"{out.scenario.label()}: affected={list(out.affected)} "
                f"recovered={list(out.recovered)} exempt={list(out.exempt)} "
                f"failed={list(out.failed)}"
                + (f" contention={list(out.contention)}" if out.contention else ""))
        pct = float(self.restorability * 100)
        lines.append(f"restorability: {pct:.1f}%  contention violations: "
                     f"{self.contention_count}")
        return "\n".join(lines) + "\n"


def enumerate_failures(config: NetworkConfiguration) -> tuple[FailureScenario, ...]:
    """One scenario per physical link, per node (router + OXC), and per
    lightpath endpoint interface, in deterministic order.  The enumeration
    is mode independent."""
    scenarios: list[FailureScenario] = []
    for link in sorted(config.instance.topology.links):
        scenarios.append(FailureScenario("physical-link", link))
    for node in sorted(config.instance.topology.nodes):
        scenarios.append(FailureScenario("node", (node,)))
    for lp in config.lightpaths:
        scenarios.append(FailureScenario("ip-optical-interface", (lp.id, lp.i)))
        scenarios.append(FailureScenario("ip-optical-interface", (lp.id, lp.j)))
    return tuple(scenarios)


def _effective_alive(config: NetworkConfiguration, lp_id: int,
                     scenario: FailureScenario, optical_recovery: bool
                     ) -> tuple[bool, bool]:
    """(alive after any optical recovery, recovery actually used)."""
    if not scenario.hits(config.lightpath_routes[lp_id], (lp_id,)):
        return True, False
    backup = config.protection_routes.get(lp_id)
    if optical_recovery and backup is not None and not scenario.hits(backup, ()):
        return True, True
    return False, False


def check_restorability(config: NetworkConfiguration,
                        scenarios: Iterable[FailureScenario]) -> RestorabilityReport:
    """For every scenario, classify each working LSP as unaffected, exempt
    (endpoint node failed), recovered (working path survives via optical
    protection, or the protection LSP is intact and capacity-feasible) or
    failed.  Under interlayer BRS, simultaneous claims on one shared
    wavelength pool are flagged as contention."""
    mode = config.mode
    optical = mode.multilayer
    outcomes: list[ScenarioOutcome] = []
    num = 0
    den = 0
    contention_total = 0

    for scenario in scenarios:
        alive: dict[int, bool] = {}
        plp_used: dict[int, bool] = {}
        for lp in config.lightpaths:
            a, used = _effective_alive(config, lp.id, scenario, optical)
            alive[lp.id] = a
            plp_used[lp.id] = used

        affected: list[int] = []
        recovered: list[int] = []
        exempt: list[int] = []
        failed: list[int] = []
        mpls_recovered: list[int] = []

        for lsp in config.instance.traffic:
            route = config.lsp_routes[lsp.id]
            if not scenario.hits(config.lsp_physical_walk(lsp.id, "working"),
                                 route.working):
                continue
            affected.append(lsp.id)
            if scenario.kind == "node" and scenario.target[0] in (lsp.source,
                                                                  lsp.destination):
                exempt.append(lsp.id)
                continue
            # does the working path still function after optical switchover?
            works = all(alive[lp_id] for lp_id in route.working)
            if works and scenario.kind == "node":
                works = scenario.target[0] not in config.lsp_logical_nodes(
                    lsp.id, "working")[1:-1]
            if works:
                recovered.append(lsp.id)
                continue
            # packet-layer recovery over the protection LSP
            if route.protection is not None:
                ok = all(alive[lp_id] for lp_id in route.protection)
                if ok and scenario.kind == "node":
                    ok = scenario.target[0] not in config.lsp_logical_nodes(
                        lsp.id, "protection")[1:-1]
                if ok:
                    recovered.append(lsp.id)
                    mpls_recovered.append(lsp.id)
                    continue
            failed.append(lsp.id)

        contention: list[str] = []
        if mode is SurvivabilityMode.ML_INTERLAYER_BRS:
            contention = _brs_contention(config, scenario, alive, plp_used,
                                         mpls_recovered)
            if contention:
                # LSPs whose packet-layer recovery relies on a contended pool
                # cannot all be honoured; count them as failed
                losers = [k for k in mpls_recovered]
                recovered = [k for k in recovered if k not in losers]
                failed = sorted(set(failed) | set(losers))
        contention_total += len(contention)

        num += len(recovered)
        den += len(affected) - len(exempt)
        outcomes.append(ScenarioOutcome(
            scenario=scenario,
            affected=tuple(affected),
            recovered=tuple(recovered),
            exempt=tuple(exempt),
            failed=tuple(failed),
            contention=tuple(contention)))

    fraction = Fraction(1) if den == 0 else Fraction(num, den)
    return RestorabilityReport(outcomes=tuple(outcomes), restorability=fraction,
                               contention_count=contention_total)


def _brs_contention(config: NetworkConfiguration, scenario: FailureScenario,
                    alive: dict[int, bool], plp_used: dict[int, bool],
                    mpls_recovered: list[int]) -> list[str]:
    """Per link: activated protection lightpaths plus the spare carriers that
    activated protection LSPs still need may not exceed the provisioned pool
    max(s_e, w_e2)."""
    claims: dict[Link, int] = {}
    for lp in config.lightpaths:
        if plp_used.get(lp.id):
            for link in route_links(config.protection_routes[lp.id]):
                claims[link] = claims.get(link, 0) + 1
    needed_carriers: set[int] = set()
    for k in mpls_recovered:
        for lp_id in config.lsp_routes[k].protection or ():
            needed_carriers.add(lp_id)
    for lp_id in sorted(needed_carriers):
        if not alive[lp_id]:
            continue
        for link in route_links(config.lightpath_routes[lp_id]):
            claims[link] = claims.get(link, 0) + 1
    out: list[str] = []
    for link in sorted(claims):
        pool = max(config.link_spare.get(link, 0),
                   config.link_working_p.get(link, 0))
        if claims[link] > pool:
            out.append(f"{scenario.label()}: link ({link[0]},{link[1]}) claims "
                       f"{claims[link]} shared wavelengths, pool {pool}")
    return out


# ---------------------------------------------------------------------------
# disjointness

def _internal(seq: Sequence[Node]) -> frozenset[Node]:
    return frozenset(seq[1:-1])


def check_disjointness(config: NetworkConfiguration) -> tuple[str, ...]:
    """Literal set-intersection verification of the mode's protection-routing
    rules over working/protection LSP pairs and lightpath/backup pairs."""
    mode = config.mode
    violations: list[str] = []

    for lsp in config.instance.traffic:
        route = config.lsp_routes[lsp.id]
        if route.protection is None:
            continue
        k = lsp.id
        shared_lp = set(route.working) & set(route.protection)
        if shared_lp:
            violations.append(f"lsp {k}: working and protection share lightpath(s) "
                              f"{sorted(shared_lp)}")
        w_seq = config.lsp_logical_nodes(k, "working")
        p_seq = config.lsp_logical_nodes(k, "protection")
        common = _internal(w_seq) & _internal(p_seq)
        if common:
            violations.append(f"lsp {k}: logical transit nodes shared {sorted(common)}")
        if mode.plsp_physically_disjoint:
            w_walk = config.lsp_physical_walk(k, "working")
            p_walk = config.lsp_physical_walk(k, "protection")
            shared_nodes = _internal(w_walk) & _internal(p_walk)
            if shared_nodes:
                violations.append(
                    f"lsp {k}: physical transit nodes shared {sorted(shared_nodes)}")
            if mode is SurvivabilityMode.SINGLE_LAYER:
                shared_links = route_links(w_walk) & route_links(p_walk)
                if shared_links:
                    violations.append(
                        f"lsp {k}: physical links shared {sorted(shared_links)}")

    for lp in config.lightpaths:
        backup = config.protection_routes.get(lp.id)
        if backup is None:
            continue
        route = config.lightpath_routes[lp.id]
        shared_nodes = _internal(route) & _internal(backup)
        if shared_nodes:
            violations.append(f"lightpath {lp.id}: backup shares transit node(s) "
                              f"{sorted(shared_nodes)}")
        shared_links = route_links(route) & route_links(backup)
        if shared_links:
            violations.append(f"lightpath {lp.id}: backup shares link(s) "
                              f"{sorted(shared_links)}")

    if mode is SurvivabilityMode.ML_INTERLAYER_BRS:
        plsp_links: dict[int, frozenset[Link]] = {}
        for lsp in config.instance.traffic:
            if config.lsp_routes[lsp.id].protection is not None:
                plsp_links[lsp.id] = route_links(
                    config.lsp_physical_walk(lsp.id, "protection"))
        for lp in config.lightpaths:
            backup = config.protection_routes.get(lp.id)
            if backup is None:
                continue
            for x in config.lightpath_routes[lp.id][1:-1]:
                for lsp in config.instance.traffic:
                    if lsp.id not in plsp_links:
                        continue
                    if x not in config.lsp_logical_nodes(lsp.id, "working")[1:-1]:
                        continue
                    shared = route_links(backup) & plsp_links[lsp.id]
                    if shared:
                        violations.append(
                            f"co-located protections overlap at node {x}: lightpath "
                            f"{lp.id} backup and pLSP {lsp.id} share {sorted(shared)}")
    return tuple(dict.fromkeys(violations))
