import pytest

from otnplan.modes import Approach, SurvivabilityMode
from otnplan.netmodel import generate_topology
from otnplan.oracle import OracleBoundsError, brute_force_optimum

from conftest import make_instance


class TestOracleExamples:
    def test_ring_mode_none(self, ring4_factory):
        cost, config = brute_force_optimum(ring4_factory(SurvivabilityMode.NONE))
        assert cost == 23  # one lightpath (17) + two wavelength links (6)
        assert config.counts().lightpaths == 1

    def test_ring_single_layer(self, ring4_factory):
        cost, config = brute_force_optimum(ring4_factory(SurvivabilityMode.SINGLE_LAYER))
        # node/link-disjoint pair on opposite ring sides: 2 lightpaths + 4
        # wavelength links
        assert cost == 2 * 17 + 4 * 3
        assert config.counts().lightpaths == 2
        assert config.counts().wavelengths == 4

    def test_deterministic_configuration(self, ring4_factory):
        _c1, cfg1 = brute_force_optimum(ring4_factory(SurvivabilityMode.ML_DOUBLE))
        _c2, cfg2 = brute_force_optimum(ring4_factory(SurvivabilityMode.ML_DOUBLE))
        assert cfg1.lightpath_routes == cfg2.lightpath_routes
        assert cfg1.protection_routes == cfg2.protection_routes
        assert cfg1.lsp_routes == cfg2.lsp_routes

    def test_bounds_rejected(self):
        topo = generate_topology(6, 3, seed=1)
        inst = make_instance(topo, [(0, 1, 2)])
        with pytest.raises(OracleBoundsError):
            brute_force_optimum(inst)
        topo4 = generate_topology(4, 2, seed=1)
        inst_q2 = make_instance(topo4, [(0, 1, 2)], q=2)
        with pytest.raises(OracleBoundsError):
            brute_force_optimum(inst_q2)

    def test_mode_override(self, ring4_factory):
        cost_none, _ = brute_force_optimum(ring4_factory(SurvivabilityMode.NONE))
        cost_sl, _ = brute_force_optimum(ring4_factory(SurvivabilityMode.SINGLE_LAYER))
        assert cost_sl > cost_none

    def test_integrated_supported(self, ring4_factory):
        cost, _ = brute_force_optimum(
            ring4_factory(SurvivabilityMode.NONE, Approach.INTEGRATED))
        assert cost == 23
