import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from otnplan.formulation import PROTECTION
from otnplan.modes import Approach, SurvivabilityMode
from otnplan.netmodel import COST_RATIO_PRESETS, CostRatios, PhysicalTopology
from otnplan.planner import (PlanError, PlanOptions, ResourceCounts,
                             apply_brs_sharing, assemble_configuration, plan,
                             total_cost, transit_traffic)

from conftest import UNIT_CR1, config_without_phases, make_instance

EXACT = PlanOptions(gap=0.0, time_limit=120)


class TestRingPipelines:
    def test_mode_none(self, ring4_factory):
        cfg = plan(ring4_factory(SurvivabilityMode.NONE), EXACT)
        counts = cfg.counts()
        assert counts.lightpaths == 1
        assert counts.wavelengths == 2
        assert counts.transit_gbps == 0
        assert cfg.cost.total == 23  # one lightpath plus two wavelength links

    def test_single_layer(self, ring4_factory):
        cfg = plan(ring4_factory(SurvivabilityMode.SINGLE_LAYER), EXACT)
        counts = cfg.counts()
        assert counts.lightpaths == 2
        assert cfg.protection_carrying_lightpaths() == 1
        assert counts.wavelengths == 4
        # working and protection use opposite ring sides
        walks = {tuple(cfg.lsp_physical_walk(0, side)) for side in ("working", "protection")}
        assert walks == {(0, 1, 2), (0, 3, 2)}
        assert cfg.cost.total == 2 * 17 + 4 * 3

    def test_interlayer_brs_single_hop(self, ring4_factory):
        cfg = plan(ring4_factory(SurvivabilityMode.ML_INTERLAYER_BRS), EXACT)
        assert cfg.lsp_routes[0].protection is None  # single-hop LSP
        assert cfg.protection_carrying_lightpaths() == 0
        assert len(cfg.protection_routes) == 1  # the working lightpath's backup
        assert sum(cfg.link_spare.values()) == 2
        assert cfg.cost.total == 17 + 4 * 3

    def test_integrated_equals_sequential_on_ring(self, ring4_factory):
        seq = plan(ring4_factory(SurvivabilityMode.NONE, Approach.SEQUENTIAL), EXACT)
        joint = plan(ring4_factory(SurvivabilityMode.NONE, Approach.INTEGRATED), EXACT)
        assert seq.cost.total == joint.cost.total == 23


class TestTransitTraffic:
    def test_single_hop_no_transit(self, ring4_factory):
        cfg = plan(ring4_factory(SurvivabilityMode.NONE), EXACT)
        delta, total = transit_traffic(cfg)
        assert total == 0
        assert all(v == 0 for v in delta.values())

    def test_two_hop_counts_middle_node(self, ring4):
        # grooming: second (0,2) LSP is forced through an intermediate router
        inst = make_instance(ring4, [(0, 2, 10), (0, 2, 10)], q=1)
        cfg = plan(inst, EXACT)
        delta, total = transit_traffic(cfg)
        assert total == 10
        assert sorted(v for v in delta.values() if v) == [10]

    def test_terminating_traffic_not_transit(self, ring4):
        inst = make_instance(ring4, [(0, 1, 8), (1, 2, 8)], q=1)
        cfg = plan(inst, EXACT)
        _delta, total = transit_traffic(cfg)
        assert total == 0


class TestBrsSharing:
    def _config_with_links(self, ring4_factory, w1, w2, s):
        cfg = plan(ring4_factory(SurvivabilityMode.ML_INTERLAYER_BRS), EXACT)
        cfg.link_working_w = dict(w1)
        cfg.link_working_p = dict(w2)
        cfg.link_spare = dict(s)
        return apply_brs_sharing(cfg)

    def test_pool_absorbs_smaller_spare_traffic(self, ring4_factory):
        cfg = self._config_with_links(
            ring4_factory, {(0, 1): 2}, {(0, 1): 3}, {(0, 1): 5})
        assert cfg.link_total[(0, 1)] == 2 + 5
        assert cfg.extra_wavelengths == 0
        assert cfg.reuse_factor == 1

    def test_extra_wavelengths_counted(self, ring4_factory):
        cfg = self._config_with_links(
            ring4_factory, {(0, 1): 1}, {(0, 1): 3}, {(0, 1): 2})
        assert cfg.link_total[(0, 1)] == 1 + 3
        assert cfg.extra_wavelengths == 1
        assert cfg.reuse_factor == Fraction(2, 3)

    def test_full_reuse_reports_one(self, ring4_factory):
        cfg = self._config_with_links(ring4_factory, {(0, 1): 4}, {}, {(0, 1): 3})
        assert cfg.extra_wavelengths == 0
        assert cfg.reuse_factor == 1


class TestTotalCost:
    def test_published_resource_row(self):
        counts = ResourceCounts(transit_gbps=Fraction("262.5"), lightpaths=143,
                                wavelengths=329)
        cost = total_cost(counts, UNIT_CR1)
        assert cost.total == 3628
        assert cost.optical == 987

    def test_empty_configuration(self):
        counts = ResourceCounts(transit_gbps=Fraction(0), lightpaths=0, wavelengths=0)
        assert total_cost(counts, UNIT_CR1).total == 0

    def test_interlayer_brs_row(self):
        counts = ResourceCounts(transit_gbps=Fraction("52.5"), lightpaths=216,
                                wavelengths=480)
        cost = total_cost(counts, UNIT_CR1)
        assert cost.total == 5154
        assert cost.optical == 1440


class TestPlannerInvariants:
    def test_mode_none_is_cheapest(self, suite_results, small_suite):
        for idx in range(len(small_suite)):
            base = suite_results[(idx, SurvivabilityMode.NONE)][0].cost.total
            for mode in SurvivabilityMode:
                assert suite_results[(idx, mode)][0].cost.total >= base

    def test_ml_cost_ordering(self, suite_results, small_suite):
        for idx in range(len(small_suite)):
            double = suite_results[(idx, SurvivabilityMode.ML_DOUBLE)][0].cost.total
            spare = suite_results[(idx, SurvivabilityMode.ML_SPARE_UNPROTECTED)][0].cost.total
            brs = suite_results[(idx, SurvivabilityMode.ML_INTERLAYER_BRS)][0].cost.total
            assert double >= spare >= brs

    def test_protected_set_is_exactly_multihop(self, suite_results):
        for (idx, mode), (config, _c, _o) in suite_results.items():
            if not mode.multilayer:
                continue
            for lsp in config.instance.traffic:
                route = config.lsp_routes[lsp.id]
                multihop = len(route.working) >= 2
                assert (route.protection is not None) == multihop

    def test_cost_recomputable_from_routes(self, suite_results):
        for (idx, mode), (config, _c, _o) in suite_results.items():
            rebuilt = assemble_configuration(
                config.instance, config.lightpaths, config.lightpath_routes,
                config.protection_routes, config.lsp_routes)
            assert rebuilt.cost.total == config.cost.total
            assert rebuilt.link_total == config.link_total
            assert rebuilt.transit == config.transit

    def test_scaling_unit_costs_scales_cost(self, ring4):
        cr1 = COST_RATIO_PRESETS["CR1"]
        scaled = CostRatios(3 * cr1.c_tr, 3 * cr1.c_p_ip, 3 * cr1.c_p_oxc)
        inst1 = make_instance(ring4, [(0, 2, 10), (1, 3, 6)],
                              SurvivabilityMode.SINGLE_LAYER)
        inst3 = make_instance(ring4, [(0, 2, 10), (1, 3, 6)],
                              SurvivabilityMode.SINGLE_LAYER, ratios=scaled)
        cost1 = plan(inst1, EXACT).cost.total
        cost3 = plan(inst3, EXACT).cost.total
        assert cost3 == 3 * cost1

    def test_capacity_identity_per_pair(self, suite_results):
        # w + s per node pair equals the lightpath counts by status
        for (_idx, _mode), (config, _c, _o) in suite_results.items():
            for lp in config.lightpaths:
                pair = (lp.i, lp.j)
                if lp.status == PROTECTION:
                    assert config.pair_spare[pair] >= 1
                else:
                    assert config.pair_working[pair] >= 1
            total_pairs = sum(config.pair_working.values()) + sum(config.pair_spare.values())
            assert total_pairs == len(config.lightpaths)

    def test_wavelength_budget_respected(self, suite_results):
        for (_idx, _mode), (config, _c, _o) in suite_results.items():
            W = config.instance.topology.W
            for link, count in config.link_total.items():
                assert count <= W


class TestInfeasiblePhases:
    def test_backup_without_route_is_named(self):
        # on the path 0-1-2 the backup of lightpath (0,2) must avoid node 1
        path3 = PhysicalTopology(range(3), [(0, 1), (1, 2)])
        inst = make_instance(path3, [(0, 2, 10)], SurvivabilityMode.ML_DOUBLE)
        with pytest.raises(PlanError) as err:
            plan(inst, EXACT)
        assert err.value.phase == "IV-protection-lightpaths"
        assert err.value.binding == ("lightpath 0 (0,2,q=1) has no admissible route",)


class TestBeyondOracleBounds:
    def test_q2_parallel_lightpaths(self, ring4):
        from otnplan.verify import (check_disjointness, check_restorability,
                                    enumerate_failures)
        inst = make_instance(ring4, [(0, 2, 10), (0, 2, 10)],
                             SurvivabilityMode.SINGLE_LAYER, q=2)
        cfg = plan(inst, EXACT)
        # parallel q-indexed lightpaths instead of grooming detours
        assert cfg.counts().lightpaths == 4
        assert cfg.counts().transit_gbps == 0
        assert {lp.q for lp in cfg.lightpaths} == {1, 2}
        assert check_disjointness(cfg) == ()
        assert check_restorability(cfg, enumerate_failures(cfg)).fully_restorable

    @pytest.mark.parametrize("label", ["CR2", "CR3"])
    def test_other_cost_ratios_match_oracle(self, ring4, label):
        from otnplan.oracle import brute_force_optimum
        ratios = COST_RATIO_PRESETS[label]
        inst = make_instance(ring4, [(0, 2, 10), (1, 3, 6)],
                             SurvivabilityMode.ML_INTERLAYER_BRS, ratios=ratios)
        cfg = plan(inst, EXACT)
        cost, _ = brute_force_optimum(inst)
        assert cfg.cost.total == cost


# each mode's plan of the six-node fixture, sequential, CR1, gap 3%: the
# sha256 of its configuration without the phase records, keys sorted
FIXTURE6_PLANS = {
    SurvivabilityMode.NONE:
        "a1beb047e5315ac823f189211276a4473bfd384536c482c8f66242efe522d2aa",
    SurvivabilityMode.SINGLE_LAYER:
        "3d669715b903faa1e4f752ef8023dbea3bb1db8510a5f37e40ba05d44df1cda7",
    SurvivabilityMode.ML_DOUBLE:
        "e94116217d74de729a028288aedc1269e7c0362635e2ef8a8908b0707cb3c622",
    SurvivabilityMode.ML_SPARE_UNPROTECTED:
        "ef266119dec0e31dad29bef9843fcf6bb432886f66eb06612e6d11f87fee8ecc",
    SurvivabilityMode.ML_INTERLAYER_BRS:
        "7e94a9102c7064d9be485255ded7daabc0909218f45befa1188a703a3272157f",
}


@pytest.mark.parametrize("mode", list(FIXTURE6_PLANS), ids=lambda mode: mode.value)
def test_fixture6_plans_are_pinned(six_node_fixture, mode):
    topo, demands = six_node_fixture
    cfg = plan(make_instance(topo, demands, mode), PlanOptions(gap=0.03))
    text = json.dumps(config_without_phases(cfg), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FIXTURE6_PLANS[mode]


def test_route_over_an_unopened_lightpath_is_a_plan_error():
    """An LSP of 1e-7 Gbps fits the capacity row b·δ <= C·β with β = 0
    within the feasibility tolerance, so the search routes it across a
    lightpath the solution does not open; the decode names it.  Loading an
    instance rejects such a demand before it gets here.  At a gap above 0
    the single-LSP phase is searched, not answered by its shortest route."""
    topology = PhysicalTopology([0, 1, 2], [(0, 1), (1, 2), (0, 2)], W=4)
    instance = make_instance(topology, [(0, 1, 1)])
    tiny = replace(instance.traffic[0], bandwidth=Fraction(1, 10 ** 7))
    with pytest.raises(PlanError, match=r"LSP 0 crosses lightpath \(0,1,q=1\), which is "
                                        r"not open"):
        plan(replace(instance, traffic=(tiny,)), PlanOptions(gap=0.03, time_limit=60))
