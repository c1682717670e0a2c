"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them inline)."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from otnplan.formulation import build_integrated, build_logical_design, WORKING
from otnplan.milp import MilpModel, check_solution, solve_milp
from otnplan.modes import Approach, SurvivabilityMode
from otnplan.netmodel import PhysicalTopology, generate_topology
from otnplan.planner import PlanOptions, ResourceCounts, plan, total_cost
from otnplan.report import fmt_cost
from otnplan.verify import check_disjointness, check_restorability, enumerate_failures
from otnplan.formulation import estimate_problem_size_raw

from conftest import ALL_MODES, UNIT_CR1, add_row, config_without_phases, make_instance

EXACT = PlanOptions(gap=0.0, time_limit=300)
DEFAULT = PlanOptions(gap=0.03, time_limit=300)


def _line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


# 1 ------------------------------------------------------------------------
# Published resource counts reproduce the printed totals under CR1, C=10.
PUBLISHED_EXACT = [
    # (transit Gbps, lightpaths, wavelengths, total, optical)
    ("262.5", 143, 329, 3628, 987),
    ("100", 160, 334, 3802, 1002),
    ("97.5", 148, 297, 3485, 891),
    ("97.5", 148, 267, 3395, 801),
    ("107.5", 208, 596, 5410, 1788),
    ("52.5", 226, 505, 5399, 1515),
    ("52.5", 216, 490, 5184, 1470),
    ("52.5", 216, 480, 5154, 1440),
]
PUBLISHED_PRINTED = [
    # exact at the printed 0-decimal precision
    ("124", 56, 140, 1471, 420),
    ("94", 82, 172, 1985, 516),
]
PUBLISHED_ERRATUM = [
    # totals exceed the cost identity by about one lightpath cost; the
    # recomputation must stay within 1.2% of the printed number
    ("92", 66, 138, 1626, 414),
    ("92", 66, 108, 1537, 324),
]


def test_criterion_1_cost_identities():
    for transit, lps, wls, total, optical in PUBLISHED_EXACT:
        cost = total_cost(ResourceCounts(Fraction(transit), lps, wls), UNIT_CR1)
        assert cost.total == total, (transit, lps, wls)
        assert cost.optical == optical
    for transit, lps, wls, total, optical in PUBLISHED_PRINTED:
        cost = total_cost(ResourceCounts(Fraction(transit), lps, wls), UNIT_CR1)
        assert fmt_cost(cost.total) == str(total)
        assert cost.optical == optical
    for transit, lps, wls, total, optical in PUBLISHED_ERRATUM:
        cost = total_cost(ResourceCounts(Fraction(transit), lps, wls), UNIT_CR1)
        assert abs(cost.total - total) / total <= Fraction("0.012")
        assert cost.optical == optical
    _line("criterion-1 cost identities", True,
          f"{len(PUBLISHED_EXACT)} exact rows, 2 printed-precision rows, "
          f"2 erratum rows within 1.2%")


# 2 ------------------------------------------------------------------------
def test_criterion_2_oracle_equivalence(suite_results, small_suite):
    compared = 0
    for (idx, mode), (config, oracle_cost, oracle_config) in suite_results.items():
        assert config.cost.total == oracle_cost, (
            f"instance {idx} mode {mode.value}: planner "
            f"{float(config.cost.total)} != oracle {float(oracle_cost)}")
        assert config_without_phases(config) == config_without_phases(oracle_config), (idx, mode)
        compared += 1
    _line("criterion-2 oracle equivalence", compared >= 20 * len(ALL_MODES),
          f"{compared} identical configurations over {len(small_suite)} instances x "
          f"{len(ALL_MODES)} modes")


# 3 ------------------------------------------------------------------------
def test_criterion_3_restorability(suite_results, six_node_fixture):
    checked = 0
    for (idx, mode), (config, _cost, _ocfg) in suite_results.items():
        if mode is SurvivabilityMode.NONE:
            continue
        report = check_restorability(config, enumerate_failures(config))
        assert report.fully_restorable, (idx, mode, report.render())
        assert check_disjointness(config) == (), (idx, mode)
        checked += 1
    topo, demands = six_node_fixture
    for mode in ALL_MODES:
        if mode is SurvivabilityMode.NONE:
            continue
        config = plan(make_instance(topo, demands, mode), DEFAULT)
        report = check_restorability(config, enumerate_failures(config))
        assert report.fully_restorable, (mode, report.render())
        assert check_disjointness(config) == ()
        checked += 1
    _line("criterion-3 restorability", True,
          f"100% restorability and zero violations on {checked} configurations")


# 4 ------------------------------------------------------------------------
def test_criterion_4_ml_cost_ordering(suite_results, small_suite):
    for idx in range(len(small_suite)):
        double = suite_results[(idx, SurvivabilityMode.ML_DOUBLE)][0].cost.total
        spare = suite_results[(idx, SurvivabilityMode.ML_SPARE_UNPROTECTED)][0].cost.total
        brs = suite_results[(idx, SurvivabilityMode.ML_INTERLAYER_BRS)][0].cost.total
        assert double >= spare >= brs, (idx, float(double), float(spare), float(brs))
    _line("criterion-4 ML cost ordering", True,
          f"double >= spare-unprotected >= interlayer-BRS on {len(small_suite)} instances")


# 5 ------------------------------------------------------------------------
def test_criterion_5_integrated_vs_sequential(small_suite):
    strict = 0
    compared = 0
    cases = [(topo, demands) for topo, demands in small_suite[:10]]
    ring5 = PhysicalTopology(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], W=32)
    cases.append((ring5, ((0, 2, 6), (0, 2, 6))))  # bundled strict-improvement fixture
    for topo, demands in cases:
        seq = plan(make_instance(topo, demands, SurvivabilityMode.NONE,
                                 Approach.SEQUENTIAL), EXACT)
        joint = plan(make_instance(topo, demands, SurvivabilityMode.NONE,
                                   Approach.INTEGRATED), EXACT)
        cs, cj = seq.counts(), joint.counts()
        assert cj.wavelengths <= cs.wavelengths
        assert cj.lightpaths == cs.lightpaths
        assert cj.transit_gbps == cs.transit_gbps
        compared += 1
        if cj.wavelengths < cs.wavelengths:
            strict += 1
    _line("criterion-5 integrated vs sequential", compared >= 10 and strict >= 1,
          f"{compared} instances, wavelengths never worse, strict improvement on {strict}")


# 6 ------------------------------------------------------------------------
def test_criterion_6_connectivity_trend():
    rng = random.Random(5150)
    demands = [(s, d, rng.choice([4, 6, 8])) for s, d in
               [rng.sample(range(8), 2) for _ in range(5)]]
    usage = []
    for dbar in (2, 4, 7):
        topo = generate_topology(8, dbar, seed=77)  # same seed: nested link sets
        config = plan(make_instance(topo, demands, SurvivabilityMode.NONE), EXACT)
        usage.append(config.counts().wavelengths)
    assert usage[0] >= usage[1] >= usage[2], usage
    _line("criterion-6 connectivity trend", True,
          f"wavelengths {usage} non-increasing over connectivity 2, 4, 7")


# 7 ------------------------------------------------------------------------
def test_criterion_7_problem_size_estimates(ring4, small_suite):
    assert estimate_problem_size_raw(12, 126, 2, Approach.SEQUENTIAL) == 18144
    assert estimate_problem_size_raw(12, 126, 2, Approach.INTEGRATED, 24) == 25056
    worst = 1.0
    for topo, demands in list(small_suite[:5]) + [(ring4, ((0, 2, 10), (1, 3, 4)))]:
        inst = make_instance(topo, demands)
        _m, varmap = build_logical_design(inst, WORKING)
        est = estimate_problem_size_raw(topo.n, len(inst.traffic), 1,
                                        Approach.SEQUENTIAL)
        ratio = len(varmap.delta) / est
        worst = max(worst, ratio, 1 / ratio)
        _m2, varmap2 = build_integrated(inst, WORKING)
        est2 = estimate_problem_size_raw(topo.n, len(inst.traffic), 1,
                                         Approach.INTEGRATED, len(set(topo.links)))
        routing2 = len(varmap2.delta) + len(varmap2.lam)
        ratio2 = routing2 / est2
        worst = max(worst, ratio2, 1 / ratio2)
    assert worst <= 2.0
    _line("criterion-7 problem-size estimates", True,
          f"18144/25056 exact; builder counts within {worst:.2f}x of estimates")


# 8 ------------------------------------------------------------------------
def test_criterion_8_solver_soundness():
    rng = np.random.default_rng(20250808)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(3, 21))
        rows = int(rng.integers(1, 8))
        A = np.round(rng.uniform(-4, 4, (rows, n)), 1)
        b = np.round(rng.uniform(-2, 7, rows), 1)
        c = np.round(rng.uniform(-5, 5, n), 1)
        rels = rng.choice(["<=", ">=", "="], rows, p=[0.6, 0.3, 0.1])
        model = MilpModel(f"rand{trial}")
        ids = model.add_variables([f"v{i}" for i in range(n)], objective=c)
        for i in range(rows):
            add_row(model, f"c{i}", [(ids[j], A[i, j]) for j in range(n)],
                                 rels[i], b[i])
        sol = solve_milp(model, gap=0.0)
        pts = np.array(list(itertools.product([0, 1], repeat=n)), dtype=np.int8)
        lhs = pts.astype(float) @ A.T
        feas = np.ones(len(pts), bool)
        for i in range(rows):
            if rels[i] == "<=":
                feas &= lhs[:, i] <= b[i] + 1e-9
            elif rels[i] == ">=":
                feas &= lhs[:, i] >= b[i] - 1e-9
            else:
                feas &= np.abs(lhs[:, i] - b[i]) <= 1e-9
        if feas.any():
            best = float((pts[feas].astype(float) @ c).min())
            assert sol.status == "optimal", trial
            assert sol.objective == pytest.approx(best, abs=1e-7), trial
            assert not check_solution(model, sol.values), trial
        else:
            assert sol.status == "infeasible", trial
        checked += 1
    _line("criterion-8 solver soundness", checked == 50,
          f"{checked} random models match exhaustive enumeration at gap 0")
