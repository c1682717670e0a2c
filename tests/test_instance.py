import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from otnplan.formulation import ProblemInstance
from otnplan.instance import (bundled_instance_path, config_from_dict, config_to_dict,
                              instance_from_dict, instance_to_dict, load_instance)
from otnplan.modes import Approach, SurvivabilityMode
from otnplan.oracle import brute_force_optimum
from otnplan.planner import PlanError, PlanOptions, plan
from otnplan.netmodel import (PhysicalTopology, SystemParams, split_demands,
                              validate_topology)

from conftest import UNIT_CR1, make_instance

EXACT = PlanOptions(gap=0.0, time_limit=120)
BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


class TestInstanceFormat:
    def test_bundled_instance_shape(self):
        data = json.loads(bundled_instance_path().read_text(encoding="utf-8"))
        assert len(data["nodes"]) == 12
        assert len(data["links"]) == 24
        assert len(data["demands"]) == 56
        inst = instance_from_dict(data)
        assert len(inst.traffic) == 126  # some demands split into several LSPs
        assert validate_topology(inst.topology).ok

    def test_custom_cost_ratio_mapping(self):
        data = {
            "nodes": [0, 1, 2], "links": [[0, 1], [1, 2], [0, 2]],
            "params": {"C": 10, "W": 8, "Q": 1, "T": 4},
            "cost_ratio": {"c_TR": 1, "c_P_IP": 8, "c_P_OXC": 0.5},
            "demands": [{"s": 0, "d": 1, "b": 4}],
        }
        inst = instance_from_dict(data)
        assert inst.unit_costs.c_lp == 17
        assert inst.unit_costs.c_tt == Fraction("0.8")

    def test_default_interface_budget_applied(self):
        data = {
            "nodes": [0, 1, 2], "links": [[0, 1], [1, 2], [0, 2]],
            "params": {"C": 10, "W": 8, "Q": 2},
            "demands": [{"s": 0, "d": 1, "b": 4}],
        }
        inst = instance_from_dict(data)
        assert inst.params.T == 2 * 2 * 2

    def test_echo_keeps_topology_wavelengths(self):
        topo = PhysicalTopology(range(3), [(0, 1), (1, 2)], W=1)
        inst = ProblemInstance(topo, split_demands([(0, 2, 4)], 10),
                               SystemParams(C=10, Q=1, n_nodes=3), UNIT_CR1)
        assert instance_from_dict(instance_to_dict(inst)).topology.W == 1


    def test_bench_instances_load(self, tmp_path, monkeypatch):
        """Every instance file that the benchmark's workloads write loads;
        nothing outside the known keys slips in."""
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        for name in ("fixture6", "suite20-gap0", "export12"):
            requests = workloads.setup(name, 1, workloads.SUITE_SEED, tmp_path).requests
            for path in {request.instance for request in requests}:
                assert load_instance(path).traffic


class TestConfigRoundTrip:
    @pytest.mark.parametrize("mode", [SurvivabilityMode.SINGLE_LAYER,
                                      SurvivabilityMode.ML_INTERLAYER_BRS])
    def test_serialisation_reproduces_everything(self, ring4_factory, mode):
        config = plan(ring4_factory(mode), EXACT)
        data = config_to_dict(config)
        rebuilt = config_from_dict(json.loads(json.dumps(data)))
        assert rebuilt.cost.total == config.cost.total
        assert rebuilt.lightpath_routes == config.lightpath_routes
        assert rebuilt.protection_routes == config.protection_routes
        assert rebuilt.link_total == config.link_total
        assert rebuilt.transit == config.transit
        assert rebuilt.extra_wavelengths == config.extra_wavelengths
        assert [p.name for p in rebuilt.phases] == [p.name for p in config.phases]

    def test_every_plan_reloads(self, suite_results, ring4_factory):
        configs = [c for config, _cost, oracle_config in suite_results.values()
                   for c in (config, oracle_config)]
        configs += [plan(ring4_factory(mode, Approach.INTEGRATED), EXACT)
                    for mode in SurvivabilityMode]
        for config in configs:
            rebuilt = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
            assert rebuilt.cost.total == config.cost.total


class TestPlannerDiagnostics:
    def test_wavelength_shortage_names_links(self):
        topo = PhysicalTopology(range(3), [(0, 1), (1, 2)], W=1)
        inst = make_instance(topo, [(0, 2, 10), (1, 2, 10)])
        with pytest.raises(PlanError) as err:
            plan(inst, EXACT)
        assert err.value.phase == "III-working-lightpaths"
        assert any("link (1,2)" in b for b in err.value.binding)

    def test_unplannable_protection_reports_retries(self):
        # the working routes box LSP 2's protection in; three regrouping
        # retries then an honest infeasibility diagnostic
        topo = PhysicalTopology(range(4), [(0, 1), (0, 2), (2, 3), (1, 3)], W=32)
        inst = make_instance(topo, [(0, 2, 8), (3, 0, 4), (0, 2, 4)],
                             SurvivabilityMode.SINGLE_LAYER)
        for solve in (lambda: plan(inst, EXACT), lambda: brute_force_optimum(inst)):
            with pytest.raises(PlanError) as err:
                solve()
            assert err.value.phase == "II-protection-logical"
            assert err.value.retries == 2
            assert "after 2 retries" in str(err.value)
