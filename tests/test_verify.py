from otnplan.formulation import expand_lightpaths
from otnplan.modes import SurvivabilityMode
from otnplan.planner import (LspRoute, PlanOptions, assemble_configuration, plan)
from otnplan.verify import (FailureScenario, check_disjointness,
                            check_restorability, enumerate_failures)

from conftest import make_instance

EXACT = PlanOptions(gap=0.0, time_limit=120)


class TestEnumerateFailures:
    def test_ring_counts(self, ring4_factory):
        cfg = plan(ring4_factory(SurvivabilityMode.NONE), EXACT)
        scenarios = enumerate_failures(cfg)
        kinds = [s.kind for s in scenarios]
        assert kinds.count("physical-link") == 4
        assert kinds.count("node") == 4
        assert kinds.count("ip-optical-interface") == 2  # one lightpath, two ends

    def test_count_scales_with_lightpaths(self, ring4_factory):
        cfg = plan(ring4_factory(SurvivabilityMode.SINGLE_LAYER), EXACT)
        scenarios = enumerate_failures(cfg)
        assert sum(1 for s in scenarios if s.kind == "ip-optical-interface") == 4

    def test_mode_independent(self, ring4_factory):
        a = enumerate_failures(plan(ring4_factory(SurvivabilityMode.NONE), EXACT))
        # same instance, different mode: link+node part identical
        b = enumerate_failures(plan(ring4_factory(SurvivabilityMode.ML_DOUBLE), EXACT))
        assert [s for s in a if s.kind != "ip-optical-interface"] == \
               [s for s in b if s.kind != "ip-optical-interface"]


class TestRestorability:
    def test_mode_none_reports_expected_failures(self, ring4_factory):
        cfg = plan(ring4_factory(SurvivabilityMode.NONE), EXACT)
        report = check_restorability(cfg, enumerate_failures(cfg))
        assert report.restorability < 1
        assert not report.fully_restorable

    def test_single_layer_link_failure_recovered(self, ring4_factory):
        cfg = plan(ring4_factory(SurvivabilityMode.SINGLE_LAYER), EXACT)
        report = check_restorability(cfg, [FailureScenario("physical-link", (0, 1))])
        (outcome,) = report.outcomes
        assert outcome.affected == (0,) or outcome.affected == ()
        if outcome.affected:
            assert outcome.recovered == (0,)

    def test_source_node_failure_exempt(self, ring4_factory):
        cfg = plan(ring4_factory(SurvivabilityMode.SINGLE_LAYER), EXACT)
        report = check_restorability(cfg, [FailureScenario("node", (0,))])
        (outcome,) = report.outcomes
        assert outcome.exempt == (0,)
        assert report.restorability == 1  # exempt leaves an empty denominator

    def test_full_sweep_100_percent(self, ring4_factory):
        for mode in (SurvivabilityMode.SINGLE_LAYER, SurvivabilityMode.ML_DOUBLE,
                     SurvivabilityMode.ML_SPARE_UNPROTECTED,
                     SurvivabilityMode.ML_INTERLAYER_BRS):
            cfg = plan(ring4_factory(mode), EXACT)
            report = check_restorability(cfg, enumerate_failures(cfg))
            assert report.fully_restorable, (mode, report.render())

    def test_report_deterministic(self, ring4_factory):
        cfg = plan(ring4_factory(SurvivabilityMode.ML_INTERLAYER_BRS), EXACT)
        a = check_restorability(cfg, enumerate_failures(cfg)).render()
        b = check_restorability(cfg, enumerate_failures(cfg)).render()
        assert a == b


def _hand_built_brs_contention(ring4):
    """Node 1 fails: working lightpath (0,2) transits OXC 1 and switches to
    its backup over 0-3-2, while LSP 1 (transiting router 1) activates its
    protection LSP whose spare carrier also rides 0-3-2 — two simultaneous
    claims on a shared pool of one wavelength per link."""
    inst = make_instance(ring4, [(0, 2, 4), (0, 2, 4)],
                         SurvivabilityMode.ML_INTERLAYER_BRS)
    lightpaths = expand_lightpaths(
        [(0, 1, 1), (0, 2, 1), (1, 2, 1)],  # LSP 1 rides (0,1)+(1,2); LSP 0 rides (0,2)
        [(0, 2, 1)],                        # spare carrier for pLSP 1
    )
    by_key = {lp.key: lp.id for lp in lightpaths}
    w01 = by_key[(0, 1, 1, "working")]
    w02 = by_key[(0, 2, 1, "working")]
    w12 = by_key[(1, 2, 1, "working")]
    p02 = by_key[(0, 2, 1, "protection")]
    lightpath_routes = {
        w01: (0, 1),
        w02: (0, 1, 2),   # transits OXC 1
        w12: (1, 2),
        p02: (0, 3, 2),   # spare carrier on the far side
    }
    protection_routes = {
        w02: (0, 3, 2),   # survives node 1, claims links (0,3) and (3,2)
    }
    lsp_routes = {
        0: LspRoute(0, working=(w02,), protection=None),        # single-hop
        1: LspRoute(1, working=(w01, w12), protection=(p02,)),  # via router 1
    }
    return assemble_configuration(inst, lightpaths, lightpath_routes,
                                  protection_routes, lsp_routes)


class TestBrsContention:
    def test_hand_built_contention_flagged(self, ring4):
        cfg = _hand_built_brs_contention(ring4)
        report = check_restorability(cfg, [FailureScenario("node", (1,))])
        (outcome,) = report.outcomes
        assert outcome.contention
        assert not report.fully_restorable

    def test_planner_output_contention_free(self, suite_results):
        for (idx, mode), (config, _c, _o) in suite_results.items():
            if mode is not SurvivabilityMode.ML_INTERLAYER_BRS:
                continue
            report = check_restorability(config, enumerate_failures(config))
            assert report.contention_count == 0


class TestDisjointness:
    def test_planner_output_clean(self, ring4_factory):
        for mode in SurvivabilityMode:
            cfg = plan(ring4_factory(mode), EXACT)
            assert check_disjointness(cfg) == ()

    def test_shared_transit_node_flagged(self, ring4):
        # hand-built single-layer pair whose physical routes share node 1
        inst = make_instance(ring4, [(0, 2, 4)], SurvivabilityMode.SINGLE_LAYER)
        lightpaths = expand_lightpaths([(0, 2, 1)], [(0, 2, 1)])
        routes = {0: (0, 1, 2), 1: (0, 1, 2)}  # both through node 1
        lsp_routes = {0: LspRoute(0, working=(0,), protection=(1,))}
        cfg = assemble_configuration(inst, lightpaths, routes, {}, lsp_routes)
        violations = check_disjointness(cfg)
        assert any("physical transit nodes shared" in v for v in violations)
        assert any("physical links shared" in v for v in violations)

    def test_shared_lightpath_flagged(self, ring4):
        inst = make_instance(ring4, [(0, 2, 4)], SurvivabilityMode.ML_DOUBLE)
        lightpaths = expand_lightpaths([(0, 1, 1), (1, 2, 1)])
        routes = {0: (0, 1), 1: (1, 2)}
        lsp_routes = {0: LspRoute(0, working=(0, 1), protection=(0, 1))}
        cfg = assemble_configuration(inst, lightpaths, routes, {}, lsp_routes)
        violations = check_disjointness(cfg)
        assert any("share lightpath" in v for v in violations)

    def test_backup_overlap_flagged(self, ring4):
        inst = make_instance(ring4, [(0, 2, 4)], SurvivabilityMode.ML_DOUBLE)
        lightpaths = expand_lightpaths([(0, 2, 1)])
        routes = {0: (0, 1, 2)}
        protection = {0: (0, 1, 2)}  # backup identical to the working route
        lsp_routes = {0: LspRoute(0, working=(0,), protection=None)}
        cfg = assemble_configuration(inst, lightpaths, routes, protection, lsp_routes)
        violations = check_disjointness(cfg)
        assert any("backup shares transit node" in v for v in violations)
        assert any("backup shares link" in v for v in violations)

    def test_suite_outputs_clean(self, suite_results):
        for (_idx, _mode), (config, _c, _o) in suite_results.items():
            assert check_disjointness(config) == ()
