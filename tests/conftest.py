"""Shared fixtures: canonical tiny instances and the randomized small-instance
suite reused by several acceptance criteria (plans are cached per session)."""

from __future__ import annotations

import random

import pytest

from otnplan.formulation import ProblemInstance
from otnplan.instance import config_to_dict
from otnplan.modes import Approach, SurvivabilityMode
from otnplan.netmodel import (COST_RATIO_PRESETS, PhysicalTopology, SystemParams,
                              derive_unit_costs, generate_topology, split_demands,
                              validate_topology)
from otnplan.oracle import brute_force_optimum
from otnplan.planner import PlanError, PlanOptions, plan

CR1 = COST_RATIO_PRESETS["CR1"]
UNIT_CR1 = derive_unit_costs(CR1, 10)

ALL_MODES = tuple(SurvivabilityMode)
SUITE_SIZE = 20


# six nodes at W = 2: in a single-layer plan the shortest routes overrun a
# wavelength budget in both lightpath-routing phases, so each is searched
BINDING_TOPOLOGY = PhysicalTopology(range(6), [(2, 3), (2, 5), (0, 5), (0, 4), (1, 4),
                                               (1, 3), (0, 2), (3, 5)], W=2)
BINDING_DEMANDS = ((5, 2, 10), (3, 0, 8), (4, 2, 10), (2, 0, 4))


def make_instance(topology, demands, mode=SurvivabilityMode.NONE,
                  approach=Approach.SEQUENTIAL, q=1, C=10, ratios=CR1):
    params = SystemParams(C=C, Q=q, n_nodes=topology.n)
    return ProblemInstance(topology, split_demands(demands, C), params,
                           derive_unit_costs(ratios, C), mode, approach)


def add_row(model, name, terms, relation, rhs) -> None:
    """Append one row of (column id, coefficient) terms to ``model``, as a
    block of one row."""
    terms = list(terms)
    model.add_rows([name], relation, [rhs], [len(terms)], [vid for vid, _ in terms],
                   [coef for _, coef in terms])


def config_without_phases(config) -> dict:
    """The serialised configuration minus the phase records, whose wall times
    differ between runs and which the enumeration oracle does not keep."""
    data = config_to_dict(config)
    data.pop("phases")
    return data


@pytest.fixture(scope="session")
def ring4():
    return PhysicalTopology(nodes=range(4), links=[(0, 1), (1, 2), (2, 3), (3, 0)], W=32)


@pytest.fixture(scope="session")
def ring4_factory(ring4):
    def factory(mode, approach=Approach.SEQUENTIAL, demands=((0, 2, 10),)):
        return make_instance(ring4, demands, mode, approach)
    return factory


def _random_small_instances():
    """Generate SUITE_SIZE small instances plannable (per the oracle) in every
    mode; genuinely infeasible draws are skipped, which the decomposition
    pipeline can produce on tiny topologies."""
    rng = random.Random(987654)
    out = []
    attempts = 0
    while len(out) < SUITE_SIZE and attempts < 400:
        attempts += 1
        n = rng.choice([4, 4, 5, 5, 5])
        dbar = rng.choice([2, 2.5, 3])
        topo = generate_topology(n, dbar, seed=rng.randint(0, 10 ** 6))
        if not validate_topology(topo).ok:
            continue
        k = rng.randint(1, 3)
        demands = [(s, d, rng.choice([2, 3.5, 4, 5, 6, 8, 10]))
                   for s, d in [rng.sample(range(n), 2) for _ in range(k)]]
        try:
            for mode in ALL_MODES:
                brute_force_optimum(make_instance(topo, demands, mode))
        except PlanError:
            continue
        out.append((topo, tuple(demands)))
    assert len(out) >= SUITE_SIZE, "could not assemble the randomized suite"
    return out


@pytest.fixture(scope="session")
def small_suite():
    return _random_small_instances()


@pytest.fixture(scope="session")
def suite_results(small_suite):
    """plan() at gap 0 and brute force, per instance and mode."""
    options = PlanOptions(gap=0.0, time_limit=300)
    results = {}
    for idx, (topo, demands) in enumerate(small_suite):
        for mode in ALL_MODES:
            inst = make_instance(topo, demands, mode)
            config = plan(inst, options)
            cost, oracle_config = brute_force_optimum(inst)
            results[(idx, mode)] = (config, cost, oracle_config)
    return results


@pytest.fixture(scope="session")
def six_node_fixture():
    """One 6-node, 10-LSP instance (solved at the default 3% gap in tests)."""
    topo = generate_topology(6, 3, seed=42)
    rng = random.Random(11)
    demands = [(s, d, rng.choice([4, 6, 8, 10, 10]))
               for s, d in [rng.sample(range(6), 2) for _ in range(10)]]
    return topo, tuple(demands)
