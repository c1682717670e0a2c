"""Instance and configuration file formats (JSON, UTF-8).

Instance schema::

    {
      "nodes": [1, 2, ...],
      "links": [[a, b], ...],
      "params": {"C": 10, "W": 32, "Q": 2, "T": 44},
      "cost_ratio": "CR1" | {"c_TR": .., "c_P_IP": .., "c_P_OXC": ..},
      "demands": [{"s": .., "d": .., "b": ..}, ...]
    }

Demands are raw (possibly above lightpath capacity); loading splits them into
LSPs.  ``T`` defaults to 2·Q·(N−1) when omitted.  Any other key, at the top
level or under ``params``, is rejected.  Configuration files carry
the full instance echo plus every route, capacity vector, transit vector,
cost breakdown and per-phase solver stats; everything a report prints is
recomputable from the file alone.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .formulation import PROTECTION, WORKING, Lightpath, ProblemInstance
from .modes import Approach, SurvivabilityMode
from .netmodel import (COST_RATIO_PRESETS, CostRatios, PhysicalTopology,
                       SystemParams, derive_unit_costs, route_links, split_demands)
from .planner import (LspRoute, NetworkConfiguration, PhaseRecord,
                      assemble_configuration)

__all__ = [
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "bundled_instance_path",
    "config_to_dict",
    "config_from_dict",
    "cost_ratio_from_spec",
]


_INSTANCE_KEYS = ("nodes", "links", "params", "cost_ratio", "demands")
_PARAM_KEYS = ("C", "W", "Q", "T")


def cost_ratio_from_spec(spec) -> CostRatios:
    if isinstance(spec, CostRatios):
        return spec
    if isinstance(spec, str):
        key = spec.upper()
        if key not in COST_RATIO_PRESETS:
            raise ValueError(f"unknown cost ratio {spec!r}; use CR1/CR2/CR3 or a mapping")
        return COST_RATIO_PRESETS[key]
    keys = ("c_TR", "c_P_IP", "c_P_OXC")
    if not (isinstance(spec, Mapping) and set(keys) <= spec.keys()):
        raise ValueError(f"cost ratio must be CR1, CR2, CR3 or an object with "
                         f"{', '.join(keys)}, not {spec!r}")
    return CostRatios(*(spec[key] for key in keys))


def instance_from_dict(data: Mapping[str, Any],
                       mode: SurvivabilityMode = SurvivabilityMode.NONE,
                       approach: Approach = Approach.SEQUENTIAL,
                       cost_ratio=None) -> ProblemInstance:
    _require_object(data, "instance file")
    _require_known(data, _INSTANCE_KEYS, "instance file")
    p = data.get("params", {})
    _require_object(p, "instance params")
    _require_known(p, _PARAM_KEYS, "instance params")
    topo = PhysicalTopology(nodes=_list_field(data, "nodes"),
                            links=_list_field(data, "links"), W=p.get("W", 32))
    params = SystemParams(C=p.get("C", 10), Q=p.get("Q", 2), T=p.get("T"),
                          n_nodes=topo.n)
    ratios = cost_ratio_from_spec(cost_ratio if cost_ratio is not None
                                  else data.get("cost_ratio", "CR1"))
    unit = derive_unit_costs(ratios, params.C)
    # at most min(T, Q·(N−1)) lightpaths end at a node
    traffic = split_demands(_list_field(data, "demands"), params.C,
                            max_lightpaths=min(params.T, params.Q * (topo.n - 1)))
    return ProblemInstance(topo, traffic, params, unit, mode, approach)


def _require_object(data: Any, what: str) -> None:
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")


def _require_known(data: Mapping[str, Any], keys: tuple[str, ...], what: str) -> None:
    """A key outside ``keys`` is a mistake, such as a parameter written at
    the top level, that loading would otherwise ignore for a default."""
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ValueError(f"{what} has unknown key{'s' * (len(unknown) > 1)} "
                         f"{', '.join(map(repr, unknown))}; the keys are {', '.join(keys)}")


def _list_field(data: Mapping[str, Any], key: str) -> list:
    value = data.get(key)
    if not isinstance(value, list):
        found = "missing" if key not in data else type(value).__name__
        raise ValueError(f"instance {key} must be a JSON list, not {found}")
    return value


def instance_to_dict(instance: ProblemInstance) -> dict:
    """Instance echo; the demands are the (already split) LSP list."""
    return {
        "nodes": list(instance.topology.nodes),
        "links": [list(l) for l in instance.topology.links],
        "params": {"C": _num(instance.params.C), "W": instance.topology.W,
                   "Q": instance.params.Q, "T": instance.params.T},
        "cost_ratio": {
            # unit costs are derived; echo back a ratio triple that regenerates them
            "c_TR": _num(instance.unit_costs.c_wl / 2 - _oxc(instance)),
            "c_P_IP": _num(instance.unit_costs.c_tt * instance.params.C),
            "c_P_OXC": _num(_oxc(instance)),
        },
        "demands": [{"s": l.source, "d": l.destination, "b": _num(l.bandwidth)}
                    for l in instance.traffic],
    }


def _oxc(instance: ProblemInstance) -> Fraction:
    return instance.unit_costs.c_lp / 2 - instance.unit_costs.c_tt * instance.params.C


def _num(x: Fraction):
    """JSON-friendly exact number: int when integral, a decimal string when
    the denominator allows one, else a fraction string."""
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    d = f.denominator
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d == 1:
        return str(Decimal(f.numerator) / Decimal(f.denominator))
    return str(f)


def load_instance(path,
                  mode: SurvivabilityMode = SurvivabilityMode.NONE,
                  approach: Approach = Approach.SEQUENTIAL,
                  cost_ratio=None) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return instance_from_dict(data, mode, approach, cost_ratio)


def bundled_instance_path() -> Path:
    """The packaged 12-node national-coverage example instance."""
    return Path(str(resources.files("otnplan").joinpath("data/national12.json")))


# ---------------------------------------------------------------------------
# configuration files

def config_to_dict(config: NetworkConfiguration) -> dict:
    inst = config.instance
    return {
        "mode": inst.mode.value,
        "approach": inst.approach.value,
        "instance": instance_to_dict(inst),
        "lightpaths": [
            {
                "id": lp.id, "i": lp.i, "j": lp.j, "q": lp.q, "status": lp.status,
                "route": list(config.lightpath_routes[lp.id]),
                "protection_route": (list(config.protection_routes[lp.id])
                                     if lp.id in config.protection_routes else None),
            }
            for lp in config.lightpaths
        ],
        "lsp_routes": [
            {
                "lsp": r.lsp_id,
                "working": list(r.working),
                "protection": list(r.protection) if r.protection is not None else None,
            }
            for _k, r in sorted(config.lsp_routes.items())
        ],
        "capacities": {
            "pair_working": [[a, b, c] for (a, b), c in sorted(config.pair_working.items())],
            "pair_spare": [[a, b, c] for (a, b), c in sorted(config.pair_spare.items())],
            "link_working_w": [[a, b, c] for (a, b), c in sorted(config.link_working_w.items())],
            "link_working_p": [[a, b, c] for (a, b), c in sorted(config.link_working_p.items())],
            "link_spare": [[a, b, c] for (a, b), c in sorted(config.link_spare.items())],
            "link_total": [[a, b, c] for (a, b), c in sorted(config.link_total.items())],
        },
        "transit": [[n, _num(v)] for n, v in sorted(config.transit.items())],
        "extra_wavelengths": config.extra_wavelengths,
        "reuse_factor": _num(config.reuse_factor) if config.reuse_factor is not None else None,
        "cost": {
            "transit": _num(config.cost.transit),
            "lightpath": _num(config.cost.lightpath),
            "optical": _num(config.cost.optical),
            "total": _num(config.cost.total),
        },
        "phases": [
            {
                "name": p.name, "status": p.status, "objective": p.objective,
                "best_bound": p.best_bound, "gap": p.gap, "nodes": p.nodes,
                "lp_iterations": p.lp_iterations, "wall_time": p.wall_time,
                "retries": p.retries,
            }
            for p in config.phases
        ],
    }


def config_from_dict(data: Mapping[str, Any]) -> NetworkConfiguration:
    """Rebuild a configuration from its file; capacities, transit and cost are
    recomputed from the routes (and must match what was stored)."""
    _require_object(data, "configuration file")
    _require_object(data.get("cost", {}), "configuration cost")
    try:
        mode = SurvivabilityMode(data["mode"])
        approach = Approach(data["approach"])
        inst = instance_from_dict(data["instance"], mode, approach)
        lightpaths = tuple(
            Lightpath(d["id"], d["i"], d["j"], d["q"], d["status"])
            for d in data["lightpaths"])
        lightpath_routes = {d["id"]: tuple(d["route"]) for d in data["lightpaths"]}
        protection_routes = {d["id"]: tuple(d["protection_route"])
                             for d in data["lightpaths"]
                             if d.get("protection_route")}
        lsp_routes = {
            d["lsp"]: LspRoute(lsp_id=d["lsp"], working=tuple(d["working"]),
                               protection=(tuple(d["protection"])
                                           if d.get("protection") is not None else None))
            for d in data["lsp_routes"]}
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    _check_routes(inst, lightpaths, lightpath_routes, protection_routes, lsp_routes)
    phases = tuple(PhaseRecord(**p) for p in data.get("phases", ()))
    return assemble_configuration(inst, lightpaths, lightpath_routes,
                                  protection_routes, lsp_routes, phases)


def _check_routes(inst: ProblemInstance, lightpaths: tuple[Lightpath, ...],
                  lightpath_routes: Mapping[int, tuple], protection_routes: Mapping[int, tuple],
                  lsp_routes: Mapping[int, LspRoute]) -> None:
    """Reject routes the instance cannot carry: verification trusts every
    route it reads, so a file that names a missing fiber or lightpath would
    otherwise pass or crash it."""
    if [lp.id for lp in lightpaths] != list(range(len(lightpaths))):
        raise ValueError("lightpath ids must be 0, 1, ... in file order")
    links = set(inst.topology.links)
    for lp in lightpaths:
        if lp.status not in (WORKING, PROTECTION):
            raise ValueError(f"lightpath {lp.id} status {lp.status!r} is neither "
                             f"{WORKING!r} nor {PROTECTION!r}")
        if type(lp.q) is not int or not 1 <= lp.q <= inst.params.Q:
            raise ValueError(f"lightpath {lp.id} q must be a whole number in "
                             f"1..{inst.params.Q}, got {lp.q!r}")
        for kind, routes in (("route", lightpath_routes), ("protection route", protection_routes)):
            route = routes.get(lp.id)
            if route is not None and not (
                    len(route) > 1 and {route[0], route[-1]} == {lp.i, lp.j}
                    and route_links(route) <= links):
                raise ValueError(f"lightpath {lp.id} {kind} {list(route)} is not a walk "
                                 f"over topology links from {lp.i} to {lp.j}")
    odd = sorted(set(lsp_routes) ^ {lsp.id for lsp in inst.traffic})
    if odd:
        raise ValueError(f"LSPs {odd} are routed but not in the instance, or the reverse")
    for lsp in inst.traffic:
        route = lsp_routes[lsp.id]
        for kind, ids in (("working", route.working), ("protection", route.protection)):
            if ids is None:
                continue
            node = lsp.source
            for lp_id in ids:
                if not 0 <= lp_id < len(lightpaths):
                    raise ValueError(f"LSP {lsp.id} {kind} route uses unknown lightpath {lp_id}")
                lp = lightpaths[lp_id]
                node = lp.j if node == lp.i else lp.i if node == lp.j else None
            if node != lsp.destination:
                raise ValueError(f"LSP {lsp.id} {kind} lightpaths {list(ids)} do not chain "
                                 f"from {lsp.source} to {lsp.destination}")
