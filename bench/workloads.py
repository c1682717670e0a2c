"""The benchmark's workloads: instance generation, requests and output checks.

Only generated inputs reach the program: each workload writes its instances
as JSON files that ``run_cli`` loads, as ``otnplan plan --instance`` would.

- ``fixture6``: the six-node, 10-LSP fixture of the test suite (topology
  seed 42, demand seed 11) in all five modes at gap 0.03.  It holds the
  measured hot spot, the single-layer protection phase.  The instance is fixed
  so that every run does the same work; ``--seed`` only orders the requests.
- ``suite20-gap0``: the test suite's 20 small random instances in all five
  modes at gap 0, each cost checked against the brute-force oracle.  Many tiny
  solves, so per-solve and per-node overhead dominate.  The suite is drawn
  from ``suite_seed`` (default: the test suite's seed); ``--seed`` only
  orders the requests, because suites drawn from other seeds differ in
  solve time by a factor of three.
- ``export12``: a 12-node, 24-link, Q=2 instance with 126 LSPs drawn from
  ``--seed``, exported as LP text in both approaches.  Nothing is solved; it
  exercises model building and LP writing at a size the dense solver cannot
  reach.  Every draw has the same model dimensions.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from otnplan import oracle
from otnplan.instance import config_from_dict, load_instance
from otnplan.modes import Approach, SurvivabilityMode
from otnplan.netmodel import generate_topology, validate_topology
from otnplan.planner import PlanError
from otnplan.verify import check_disjointness, check_restorability, enumerate_failures

SUITE_SEED = 987654  # the seed of the test suite's randomized small instances
SUITE_SIZE = 20
EXPORT_LSPS = 126  # the LSP count of the bundled 12-node instance


@dataclass(frozen=True)
class Request:
    key: str
    instance: str
    mode: str = "none"
    approach: str = "sequential"
    gap: float = 0.03
    verify: bool = False
    emit_lp: bool = False
    oracle_cost: Fraction | None = None


@dataclass
class Workload:
    requests: list[Request]
    record: dict = field(default_factory=dict)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write(path: Path, nodes, links, q: int, demands) -> str:
    data = {"nodes": list(nodes), "links": [list(l) for l in links],
            "params": {"C": 10, "W": 32, "Q": q}, "cost_ratio": "CR1",
            "demands": [{"s": s, "d": d, "b": b} for s, d, b in demands]}
    text = json.dumps(data, indent=1) + "\n"
    path.write_text(text, encoding="utf-8")
    return text


def _plan_requests(stem: str, path: Path, gap: float, costs=None) -> list[Request]:
    return [Request(key=f"{stem}/{mode.value}", instance=str(path), mode=mode.value,
                    gap=gap, verify=mode is not SurvivabilityMode.NONE,
                    oracle_cost=costs[mode] if costs else None)
            for mode in SurvivabilityMode]


def _fixture6(work: Path) -> Workload:
    topo = generate_topology(6, 3, seed=42)
    rng = random.Random(11)
    demands = [(s, d, rng.choice([4, 6, 8, 10, 10]))
               for s, d in [rng.sample(range(6), 2) for _ in range(10)]]
    path = work / "fixture6.json"
    text = _write(path, topo.nodes, topo.links, 1, demands)
    return Workload(_plan_requests("fixture6", path, 0.03),
                    {"inputs_sha256": _sha(text)})


def _suite(work: Path, suite_seed: int) -> Workload:
    """The draw of the test suite's ``_random_small_instances``; draws the
    oracle rejects in some mode are skipped and counted."""
    rng = random.Random(suite_seed)
    requests: list[Request] = []
    digest = hashlib.sha256()
    draws = rejected_topology = rejected_oracle = 0
    while len(requests) < SUITE_SIZE * len(SurvivabilityMode) and draws < 400:
        draws += 1
        n = rng.choice([4, 4, 5, 5, 5])
        dbar = rng.choice([2, 2.5, 3])
        topo = generate_topology(n, dbar, seed=rng.randint(0, 10 ** 6))
        if not validate_topology(topo).ok:
            rejected_topology += 1
            continue
        k = rng.randint(1, 3)
        demands = [(s, d, rng.choice([2, 3.5, 4, 5, 6, 8, 10]))
                   for s, d in [rng.sample(range(n), 2) for _ in range(k)]]
        stem = f"suite{len(requests) // len(SurvivabilityMode):02d}"
        path = work / f"{stem}.json"
        text = _write(path, topo.nodes, topo.links, 1, demands)
        try:
            # looked up on the module at call time, so a traced run records it
            costs = {mode: oracle.brute_force_optimum(load_instance(path, mode))[0]
                     for mode in SurvivabilityMode}
        except PlanError:
            rejected_oracle += 1
            continue
        digest.update(text.encode())
        requests += _plan_requests(stem, path, 0.0, costs)
    if len(requests) < SUITE_SIZE * len(SurvivabilityMode):
        raise RuntimeError(f"suite seed {suite_seed}: only {len(requests) // 5} "
                           f"plannable instances in {draws} draws")
    return Workload(requests, {
        "suite_seed": suite_seed, "draws": draws,
        "rejected_topology": rejected_topology, "rejected_oracle": rejected_oracle,
        "inputs_sha256": digest.hexdigest()})


def _export12(work: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    topo = generate_topology(12, 4, seed=rng.randint(0, 10 ** 6))
    demands = [(s, d, rng.choice([1.5, 2.5, 4, 5.5, 7, 8, 10]))
               for s, d in [rng.sample(range(12), 2) for _ in range(EXPORT_LSPS)]]
    path = work / "export12.json"
    text = _write(path, topo.nodes, topo.links, 2, demands)
    requests = [Request(key=f"export12/{a.value}", instance=str(path),
                        approach=a.value, emit_lp=True) for a in Approach]
    return Workload(requests,
                    {"topology_links": len(topo.links), "lsps": EXPORT_LSPS,
                     "inputs_sha256": _sha(text)})


def setup(name: str, seed: int, suite_seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    if name == "fixture6":
        return _fixture6(work)
    if name == "suite20-gap0":
        return _suite(work, suite_seed)
    if name == "export12":
        return _export12(work, seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks

class CheckFailed(Exception):
    pass


def _check_plan(req: Request, out: Path) -> dict:
    stem = f"{Path(req.instance).stem}.{req.mode}.{req.approach}"
    data = json.loads((out / f"{stem}.config.json").read_text(encoding="utf-8"))
    phases = data.pop("phases")
    stuck = [p["name"] for p in phases if p["status"] == "time-limit"]
    if stuck:
        raise CheckFailed(f"time limit hit in {', '.join(stuck)}")
    cost = Fraction(str(data["cost"]["total"]))
    if req.oracle_cost is not None and cost != req.oracle_cost:
        raise CheckFailed(f"cost {cost} != oracle cost {req.oracle_cost}")
    if req.mode != SurvivabilityMode.NONE.value:
        config = config_from_dict({**data, "phases": phases})
        rest = check_restorability(config, enumerate_failures(config))
        violations = check_disjointness(config)
        if not rest.fully_restorable or violations:
            raise CheckFailed(f"verification failed: restorable="
                              f"{rest.fully_restorable}, {len(violations)} "
                              f"disjointness violations")
    return {
        "fingerprint": _sha(json.dumps(data, sort_keys=True)),
        "cost": str(cost),
        "phases": [[p["name"], p["nodes"], p["lp_iterations"], p["retries"]]
                   for p in phases],
        "phase_s": [p["wall_time"] for p in phases],
    }


_AUDIT = re.compile(r"^(\S+): (\d+) variables, (\d+) constraints$", re.M)
_WROTE = re.compile(r"^wrote (.+\.lp)$", re.M)


def _lp_counts(text: str) -> tuple[str, int, int]:
    """Model name, variable count and row count read back from LP text."""
    name = text.split("\n", 1)[0][2:]
    section = ""
    rows = 0
    variables: set[str] = set()
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line
        elif section == "Subject To" and not line.startswith("   "):
            rows += 1
        elif section == "Bounds":
            parts = line.split()
            var = parts[0] if parts[1] in ("free", "=") else parts[2]
            if var != "x_dummy":
                variables.add(var)
        elif section == "Binary":
            variables.add(line.strip())
    return name, len(variables), rows


def _check_export(stdout: str) -> dict:
    audited = {m[1]: (int(m[2]), int(m[3])) for m in _AUDIT.finditer(stdout)}
    models = {}
    for path in _WROTE.findall(stdout):
        text = Path(path).read_text(encoding="utf-8")
        name, n_vars, n_rows = _lp_counts(text)
        if audited.get(name) != (n_vars, n_rows):
            raise CheckFailed(f"LP text of {name} has {n_vars} variables and "
                              f"{n_rows} rows; the built model has {audited.get(name)}")
        models[name] = [n_vars, n_rows, _sha(text)]
    if not models:
        raise CheckFailed("no LP file written")
    return {"models": models}


def check(req: Request, rc: int, stdout: str, out: Path) -> dict:
    """Evidence of a correct answer (fingerprints and counts); raises
    CheckFailed with the reason otherwise."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    return _check_export(stdout) if req.emit_lp else _check_plan(req, out)
