"""Planner against the enumeration oracle beyond the fixed suite: seeded draws
that the oracle does not filter, in both approaches and every mode, and the
integrated repros that once stopped at their time limit with a worse plan.

At gap 0 the planner and the oracle must give the same cost with no phase at
its time limit, or both must raise ``PlanError`` in the same phase."""

import random
from fractions import Fraction

import pytest

from otnplan.modes import Approach, SurvivabilityMode
from otnplan.netmodel import PhysicalTopology, generate_topology
from otnplan.oracle import brute_force_optimum
from otnplan.planner import PlanError, PlanOptions, plan

from conftest import make_instance

DRAWS = 24
BANDWIDTHS = (2, 3.5, 4, 5, 6, 8, 10)

REPRO_A = (PhysicalTopology(range(5), [(2, 4), (0, 2), (0, 3), (1, 3), (1, 4), (2, 3),
                                       (0, 1), (3, 4)], W=32),
           ((4, 0, 2), (2, 0, 6), (1, 0, 8)))
REPRO_B = (PhysicalTopology(range(5), [(i, j) for i in range(5) for j in range(i + 1, 5)],
                            W=32),
           ((2, 4, 6), (4, 2, 6), (3, 2, 8)))


def _draws(seed: int, count: int):
    """3-5 nodes at a random connectivity, 1-3 demands with the conftest
    bandwidths; nothing is filtered."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, 5)
        dbar = rng.choice([x / 2 for x in range(4, 2 * (n - 1) + 1)])
        topo = generate_topology(n, dbar, seed=rng.randint(0, 10 ** 6))
        demands = tuple((s, d, rng.choice(BANDWIDTHS))
                        for s, d in [rng.sample(range(n), 2)
                                     for _ in range(rng.randint(1, 3))])
        out.append((topo, demands))
    return out


def _outcome(call):
    """The cost of a plan, or the phase of its ``PlanError``."""
    try:
        config = call()
    except PlanError as exc:
        return ("raises", exc.phase)
    return ("cost", config.cost.total)


def assert_planner_equals_oracle(topo, demands, mode, approach, time_limit):
    inst = make_instance(topo, demands, mode, approach)
    phases = []

    def planned():
        config = plan(inst, PlanOptions(gap=0.0, time_limit=time_limit))
        phases.extend(config.phases)
        return config
    mine = _outcome(planned)
    ref = _outcome(lambda: brute_force_optimum(inst)[1])
    assert mine == ref
    assert [p.name for p in phases if p.status == "time-limit"] == []
    return mine


CASES = [
    pytest.param(idx, approach, mode, id=f"draw{idx:02d}-{approach.value}-{mode.value}")
    for idx in range(DRAWS) for approach in Approach for mode in SurvivabilityMode]


@pytest.fixture(scope="module")
def draws():
    return _draws(1, DRAWS)


@pytest.mark.parametrize("idx, approach, mode", CASES)
def test_seeded_draw_matches_oracle(draws, idx, approach, mode):
    topo, demands = draws[idx]
    assert_planner_equals_oracle(topo, demands, mode, approach, 60.0)


@pytest.mark.parametrize("repro, mode, cost, time_limit", [
    pytest.param(REPRO_A, SurvivabilityMode.SINGLE_LAYER, Fraction(132), 60.0,
                 id="A-single-layer"),
    pytest.param(REPRO_B, SurvivabilityMode.NONE, Fraction(424, 5), 60.0, id="B-none"),
    pytest.param(REPRO_B, SurvivabilityMode.SINGLE_LAYER, Fraction(863, 5), 60.0,
                 id="B-single-layer"),
])
def test_integrated_repro_matches_oracle(repro, mode, cost, time_limit):
    topo, demands = repro
    outcome = assert_planner_equals_oracle(topo, demands, mode, Approach.INTEGRATED,
                                           time_limit)
    assert outcome == ("cost", cost)
