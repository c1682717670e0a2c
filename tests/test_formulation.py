import tracemalloc
from fractions import Fraction

import pytest

from otnplan import naming, planner
from otnplan.formulation import (PROTECTION, WORKING, ExclusionSets, Lightpath,
                                 ProblemInstance, ProtectionContext, _arc_positions, audit_model,
                                 backup_exclusions, build_integrated,
                                 build_lightpath_routing, build_logical_design,
                                 compute_exclusion_sets, estimate_problem_size,
                                 estimate_problem_size_raw, expand_lightpaths,
                                 spare_carrier_exclusions)
from otnplan.instance import bundled_instance_path, load_instance
from otnplan.milp import check_solution, solve_milp
from otnplan.modes import Approach, SurvivabilityMode
from otnplan.netmodel import (PhysicalTopology, SystemParams, generate_topology,
                              split_demands)
from otnplan.planner import PlanError, PlanOptions, plan

from conftest import UNIT_CR1, make_instance


class TestVariableCounts:
    def test_lsp_routing_variables_exact(self, ring4):
        inst = make_instance(ring4, [(0, 2, 10), (1, 3, 4), (0, 1, 2)], q=1)
        _model, varmap = build_logical_design(inst, WORKING)
        n, k, q = 4, 3, 1
        assert len(varmap.delta) == q * n * (n - 1) * k
        assert len(varmap.beta) == q * n * (n - 1) // 2

    def test_estimate_within_factor_two_of_builder(self, ring4):
        inst = make_instance(ring4, [(0, 2, 10), (1, 3, 4)], q=1)
        _m, varmap = build_logical_design(inst, WORKING)
        est = estimate_problem_size(inst, Approach.SEQUENTIAL)
        ratio = len(varmap.delta) / est
        assert 0.5 <= ratio <= 2.0
        _m2, varmap2 = build_integrated(inst, WORKING)
        est2 = estimate_problem_size(inst, Approach.INTEGRATED)
        routing = len(varmap2.delta) + len(varmap2.lam)
        assert 0.5 <= routing / est2 <= 2.0

    def test_paper_size_estimates(self):
        assert estimate_problem_size_raw(12, 126, 2, Approach.SEQUENTIAL) == 18144
        assert estimate_problem_size_raw(12, 126, 2, Approach.INTEGRATED, 24) == 25056
        diff = (estimate_problem_size_raw(12, 126, 2, Approach.INTEGRATED, 24)
                - estimate_problem_size_raw(12, 126, 2, Approach.SEQUENTIAL))
        assert diff == 2 * 24 * 144  # q·E·N²


class TestLogicalDesign:
    def test_two_six_gig_lsps_need_two_lightpaths(self, ring4):
        # 6 + 6 exceeds one lightpath's capacity, so the capacity family binds
        inst = make_instance(ring4, [(0, 2, 6), (0, 2, 6)], q=2)
        model, varmap = build_logical_design(inst, WORKING)
        sol = solve_milp(model, gap=0.0)
        assert sol.status == "optimal"
        opened = sum(1 for vid in varmap.beta.values() if sol.value(vid) > 0.5)
        assert opened >= 2

    def test_interface_budget_binds(self):
        topo = PhysicalTopology(range(3), [(0, 1), (1, 2), (0, 2)])
        params = SystemParams(C=10, Q=1, T=1)
        traffic = split_demands([(0, 1, 10), (0, 2, 10)], 10)
        inst = ProblemInstance(topo, traffic, params, UNIT_CR1)
        model, _ = build_logical_design(inst, WORKING)
        sol = solve_milp(model, gap=0.0)
        assert sol.status == "infeasible"

    def test_oversized_demand_rejected(self, ring4):
        from otnplan.netmodel import LspDemand
        params = SystemParams(C=10, Q=1, n_nodes=4)
        with pytest.raises(ValueError, match="pre-split"):
            ProblemInstance(ring4, (LspDemand(0, 0, 2, Fraction(12)),), params,
                            UNIT_CR1)

    def test_audit_lists_families(self, ring4):
        inst = make_instance(ring4, [(0, 2, 10)], q=1)
        model, _ = build_logical_design(inst, WORKING)
        text = audit_model(model)
        for family in ("eq7", "eq9", "eq12"):
            assert family in text

    def test_protection_families_nonempty(self, ring4):
        inst = make_instance(ring4, [(0, 2, 10)], SurvivabilityMode.SINGLE_LAYER, q=1)
        ctx = ProtectionContext(protected=inst.traffic, interface_usage={},
                                exclusions=ExclusionSets(lsp_nodes={0: frozenset()}))
        model, _ = build_logical_design(inst, PROTECTION, ctx)
        text = audit_model(model)
        for family in ("eq7", "eq10", "eq11", "eq13"):
            assert family in text

    def test_routed_solution_traces_single_path(self, ring4):
        # every routed LSP's arc variables form one s->d path
        inst = make_instance(ring4, [(0, 2, 10), (1, 3, 6)], q=1)
        model, varmap = build_logical_design(inst, WORKING)
        sol = solve_milp(model, gap=0.0)
        for lsp in inst.traffic:
            arcs = [(i, j) for (k, i, j, _q), vid in varmap.delta.items()
                    if k == lsp.id and sol.value(vid) > 0.5]
            succ = dict(arcs)
            assert len(succ) == len(arcs), "node visited twice"
            cur = lsp.source
            seen = 0
            while cur != lsp.destination:
                cur = succ[cur]
                seen += 1
                assert seen <= 4
            assert seen == len(arcs)

    def test_capacity_respected_in_incumbent(self, ring4):
        inst = make_instance(ring4, [(0, 2, 6), (0, 2, 6), (1, 3, 9)], q=2)
        model, varmap = build_logical_design(inst, WORKING)
        sol = solve_milp(model, gap=0.0)
        assert not check_solution(model, sol.values)
        for (i, j, q), beta_vid in varmap.beta.items():
            load = sum(float(lsp.bandwidth) * (
                sol.value(varmap.delta[(lsp.id, i, j, q)])
                + sol.value(varmap.delta[(lsp.id, j, i, q)]))
                for lsp in inst.traffic)
            assert load <= 10 * sol.value(beta_vid) + 1e-6


class TestLightpathRouting:
    def test_ring_two_hops(self, ring4):
        lps = expand_lightpaths([(0, 2, 1)])
        model, varmap = build_lightpath_routing(lps, ring4, UNIT_CR1)
        sol = solve_milp(model, gap=0.0)
        used = sum(1 for vid in varmap.lam.values() if sol.value(vid) > 0.5)
        assert used == 2

    def test_protection_takes_opposite_side(self, ring4):
        from otnplan.formulation import ExclusionSets
        lps = expand_lightpaths([(0, 2, 1)])
        excl = ExclusionSets(lightpath_nodes={0: frozenset({1})},
                             lightpath_links={0: frozenset({(0, 1), (1, 2)})})
        model, varmap = build_lightpath_routing(
            lps, ring4, UNIT_CR1, protection=True, exclusions=excl)
        sol = solve_milp(model, gap=0.0)
        active = {(m, n) for (lp, m, n), vid in varmap.lam.items()
                  if sol.value(vid) > 0.5}
        assert active == {(0, 3), (3, 2)}

    def test_wavelength_budget_infeasible_names_binding_link(self):
        from otnplan.planner import diagnose_lightpath_infeasibility
        topo = PhysicalTopology(range(3), [(0, 1), (1, 2)], W=1)
        lps = expand_lightpaths([(0, 2, 1), (1, 2, 1)])
        model, _ = build_lightpath_routing(lps, topo, UNIT_CR1)
        sol = solve_milp(model, gap=0.0)
        assert sol.status == "infeasible"
        binding = diagnose_lightpath_infeasibility(lps, topo, UNIT_CR1)
        assert any("link (1,2)" in b for b in binding)


class TestIntegrated:
    def test_couples_routing_to_existence(self, ring4):
        inst = make_instance(ring4, [(0, 2, 10)], q=1,
                             approach=Approach.INTEGRATED)
        model, varmap = build_integrated(inst, WORKING)
        sol = solve_milp(model, gap=0.0)
        assert sol.status == "optimal"
        # any pair with physical flow must be an opened lightpath
        for (i, j, q, m, n), vid in varmap.lam.items():
            if sol.value(vid) > 0.5:
                assert sol.value(varmap.beta[(i, j, q)]) > 0.5
        text = audit_model(model)
        assert "eq18" in text and "eq20" in text

    def test_integrated_never_uses_more_wavelengths(self, small_suite):
        options = PlanOptions(gap=0.0, time_limit=120)
        for topo, demands in small_suite[:6]:
            seq = plan(make_instance(topo, demands, SurvivabilityMode.NONE,
                                     Approach.SEQUENTIAL), options)
            joint = plan(make_instance(topo, demands, SurvivabilityMode.NONE,
                                       Approach.INTEGRATED), options)
            assert joint.counts().wavelengths <= seq.counts().wavelengths


PATH3 = PhysicalTopology(range(3), [(0, 1), (1, 2)])
RING4 = PhysicalTopology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestExclusionSets:
    def _sl_exclusions(self, ring4, mode=SurvivabilityMode.SINGLE_LAYER):
        # wLSP 0 routed logically 0 -> 1 -> 2 over single-hop lightpaths
        inst = make_instance(ring4, [(0, 2, 10)], mode, q=1)
        return compute_exclusion_sets(inst, mode, {0: (0, 1, 2)}, {0: (0, 1)},
                                      {0: (0, 1), 1: (1, 2)})

    def test_single_layer_logical_transit_excluded(self, ring4):
        excl = self._sl_exclusions(ring4)
        assert excl.lsp_nodes == {0: frozenset({1})}
        assert excl.lsp_phys_nodes == {0: frozenset({1})}
        assert excl.lsp_links == {0: frozenset({(0, 1), (1, 2)})}
        # optically protected carriers keep no physical rule
        excl = self._sl_exclusions(ring4, SurvivabilityMode.ML_DOUBLE)
        assert excl.lsp_nodes == {0: frozenset({1})}
        assert excl.lsp_phys_nodes == {} and excl.lsp_links == {}

    def test_protection_lightpath_excludes_transit(self):
        # working lightpath 0->2 physically routed 0-1-2: its optical backup
        # must avoid node 1
        lps = expand_lightpaths([(0, 2, 1)])
        excl = backup_exclusions(SurvivabilityMode.ML_SPARE_UNPROTECTED, lps,
                                 {0: (0, 1, 2)}, {0: (0, 2)}, {})
        assert excl.lightpath_nodes[0] == frozenset({1})

    def test_single_hop_lsps_not_protected_in_ml(self, ring4):
        inst = make_instance(ring4, [(0, 2, 10)],
                             SurvivabilityMode.ML_INTERLAYER_BRS, q=1)
        config = plan(inst, PlanOptions(gap=0.0, time_limit=60))
        assert config.lsp_routes[0].protection is None

    def test_spare_carrier_union_and_conflict_detection(self, ring4):
        # a carrier avoids the union of its passengers' working internals,
        # whatever key names it
        excl = ExclusionSets(lsp_phys_nodes={0: frozenset({1}), 1: frozenset({3})},
                             lsp_links={0: frozenset({(0, 1), (1, 2)}),
                                        1: frozenset({(0, 3)})})
        carriers = spare_carrier_exclusions(excl, {2: [0], 3: [0, 1], 4: [5],
                                                   (0, 2, 1): [1]})
        assert carriers.lightpath_nodes == {2: frozenset({1}), 3: frozenset({1, 3}),
                                            4: frozenset(), (0, 2, 1): frozenset({3})}
        assert carriers.lightpath_links == {
            2: frozenset({(0, 1), (1, 2)}), 3: frozenset({(0, 1), (1, 2), (0, 3)}),
            4: frozenset(), (0, 2, 1): frozenset({(0, 3)})}
        # carrier 2 (0,2) keeps the ring's 0-3-2 side and carrier 3 has none
        # left; on the path 0-1-2 neither has a way around node 1
        lps = [Lightpath(2, 0, 2, 1, PROTECTION), Lightpath(3, 0, 2, 2, PROTECTION)]
        assert planner._cut_off(lps, ring4, carriers) == [lps[1]]
        assert planner._cut_off(lps, PATH3, carriers) == lps

    def test_spare_carrier_without_route_is_blocked(self):
        # on the path 0-1-2 no protection route can avoid node 1: single-layer
        # regroups until no grouping is left, and the optical backup of the
        # direct lightpath has no admissible route
        for mode, phase, retries in (
                (SurvivabilityMode.SINGLE_LAYER, "II-protection-logical", 2),
                (SurvivabilityMode.ML_DOUBLE, "IV-protection-lightpaths", 0)):
            with pytest.raises(PlanError) as err:
                plan(make_instance(PATH3, [(0, 2, 10)], mode, q=1), PlanOptions(gap=0.0))
            assert (err.value.phase, err.value.retries) == (phase, retries), mode

    @pytest.mark.parametrize("topology", [PATH3, RING4], ids=["path3-regrouped", "ring4"])
    def test_exclusions_computed_once_per_plan(self, topology, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return compute_exclusion_sets(*args)
        monkeypatch.setattr(planner, "compute_exclusion_sets", spy)
        inst = make_instance(topology, [(0, 2, 10)], SurvivabilityMode.SINGLE_LAYER, q=1)
        try:
            plan(inst, PlanOptions(gap=0.0))
        except PlanError:
            pass
        assert len(calls) == 1

    def test_extracted_protection_avoids_exclusions(self, suite_results):
        # decoded protection routes never touch their exclusion sets
        for (idx, mode), (config, _cost, _oc) in suite_results.items():
            if mode is SurvivabilityMode.NONE:
                continue
            for lsp in config.instance.traffic:
                route = config.lsp_routes[lsp.id]
                if route.protection is None:
                    continue
                w_transit = set(config.lsp_logical_nodes(lsp.id, "working")[1:-1])
                p_nodes = set(config.lsp_logical_nodes(lsp.id, "protection"))
                assert not (w_transit & p_nodes)


class TestBackupExclusions:
    """Step IV: what each optical backup must avoid."""

    # working lightpath 0 (0,2) transits OXC 1; LSP 5 transits router 1 and
    # its protection rides lightpath 7; LSP 6 transits nothing; LSP 9
    # transits router 1 but is not protected
    TO_PROTECT = (Lightpath(0, 0, 2, 1, WORKING),)
    ROUTES = {0: (0, 1, 2), 7: (3, 0, 4), 8: (3, 2, 4)}
    LOGICAL = {5: (3, 1, 4), 6: (3, 4), 9: (3, 1, 4)}
    PLPS = {5: (7,), 6: (8,)}

    def test_brs_backup_avoids_links_of_colocated_transit_plsp(self):
        excl = backup_exclusions(SurvivabilityMode.ML_INTERLAYER_BRS, self.TO_PROTECT,
                                 self.ROUTES, self.LOGICAL, self.PLPS)
        assert excl.lightpath_nodes == {0: frozenset({1})}
        assert excl.lightpath_links == {0: frozenset({(0, 1), (1, 2), (0, 3), (0, 4)})}

    def test_other_modes_ban_only_the_protected_route(self):
        for mode in SurvivabilityMode:
            if mode is SurvivabilityMode.ML_INTERLAYER_BRS:
                continue
            excl = backup_exclusions(mode, self.TO_PROTECT, self.ROUTES,
                                     self.LOGICAL, self.PLPS)
            assert excl.lightpath_nodes == {0: frozenset({1})}, mode
            assert excl.lightpath_links == {0: frozenset({(0, 1), (1, 2)})}, mode

    def test_protection_lightpath_backup_avoids_its_own_transit(self):
        # protection lightpath 2 (0,2) carries pLSP 0, whose working route
        # has internals {1}; the lightpath is routed 0-3-2, so its backup
        # avoids node 3 and its own links, and nothing of its passenger's
        # working route
        lps = expand_lightpaths([(0, 1, 1), (1, 2, 1)], [(0, 2, 1)])
        routes = {0: (0, 1), 1: (1, 2), 2: (0, 3, 2)}
        excl = backup_exclusions(SurvivabilityMode.ML_DOUBLE, lps, routes,
                                 {0: (0, 1, 2)}, {0: (2,)})
        assert excl.lightpath_nodes == {0: frozenset(), 1: frozenset(),
                                        2: frozenset({3})}
        assert excl.lightpath_links == {0: frozenset({(0, 1)}), 1: frozenset({(1, 2)}),
                                        2: frozenset({(0, 3), (2, 3)})}


def test_bundled_12_node_model_stays_small():
    """A model keeps flat lists, not an object per column, row and term: the
    bundled 12-node working model (33,396 columns, 1,656 rows) holds about
    7.4 MB, where one object per variable and per term held 13.6 MB."""
    instance = load_instance(bundled_instance_path())
    tracemalloc.start()
    try:
        model, varmap = build_logical_design(instance, WORKING)
        del varmap
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (len(model.names), len(model.row_names)) == (33396, 1656)
    assert held < 10e6


def _families_from_names(model, plane):
    """Each family's key -> column id, read back from the column names: the
    index part of a name is its key, and the one-name function of ``naming``
    gives that key the very same name."""
    one_name = {"beta": naming.beta, "delta": naming.delta, "lam": naming.lam}
    families = {"beta": {}, "delta": {}, "lam": {}}
    for vid, name in enumerate(model.names):
        family, *index = name[1:].split("_")
        key = tuple(map(int, index))
        name_of = naming.lam_integrated if family == "lam" and len(key) == 5 else one_name[family]
        assert name_of(plane, *key) == name
        families[family][key] = vid
    return families


def _assert_outside(view, inside):
    """Keys outside the view raise ``KeyError``, whatever their shape, so
    that ``in`` and ``get`` answer as a dict would."""
    outside = [5, None, "x", (), (None,)]
    if inside:
        key = next(iter(inside))
        outside += [key[:-1], key + (0,), key[:-1] + (-1,), (-1,) + key[1:]]
    for key in outside:
        assert key not in view and view.get(key) is None
        with pytest.raises(KeyError):
            view[key]


@pytest.mark.parametrize("mode, approach", [
    (SurvivabilityMode.ML_INTERLAYER_BRS, Approach.SEQUENTIAL),
    (SurvivabilityMode.SINGLE_LAYER, Approach.SEQUENTIAL),
    (SurvivabilityMode.SINGLE_LAYER, Approach.INTEGRATED)],
    ids=["sequential", "single-layer-sequential", "integrated"])
def test_block_names_are_those_of_the_naming_functions(mode, approach, monkeypatch):
    """Every model that a five-node, Q = 2 plan builds, in both planes: each
    family view of its varmap is the key -> id map that the column names
    give through the one-name functions of ``naming``, with ``len``,
    iteration in id order, ``in`` and ``KeyError`` as on a dict.  Each stage
    objective holds the build-time costs of its columns, also once the
    staged solve has replaced ``model.objective``.  At gap 0 the plan
    answers its lightpath-routing phases by shortest routes, whose budgets
    W = 32 leaves slack, and solves no routing model; the test then solves
    each one as the phase does when a budget binds."""
    built = []

    def recording(builder):
        def wrapper(*args, **kwargs):
            model, varmap = builder(*args, **kwargs)
            plane = PROTECTION if model.name.endswith(PROTECTION) else WORKING
            families = _families_from_names(model, plane)
            for family, keys in families.items():
                view = getattr(varmap, family)
                assert dict(view.items()) == keys
                assert len(view) == len(keys)
                assert list(view) == list(keys)
                assert list(view.values()) == sorted(keys.values())
                assert all(key in view and view[key] == vid for key, vid in keys.items())
                _assert_outside(view, keys)
            built.append((model, varmap, families, list(model.objective)))
            return model, varmap
        return wrapper

    for name in ("build_logical_design", "build_lightpath_routing", "build_integrated"):
        monkeypatch.setattr(planner, name, recording(getattr(planner, name)))
    inst = make_instance(generate_topology(5, 2.5, seed=7),
                         [(0, 2, 4), (1, 3, 6), (2, 4, 3.5)], mode, approach, q=2)
    options = PlanOptions(gap=0.0, time_limit=60)
    plan(inst, options)
    for model, varmap, _families, costs in built:
        if model.name.startswith("lightpath"):
            assert model.objective == costs  # no search ran on it
            planner._MilpPhases(inst, options)._solve(
                model, [varmap.optical_objective], model.name)
    assert {model.name.split("-")[0] for model, *_ in built} == (
        {"logical", "lightpath"} if approach is Approach.SEQUENTIAL else {"integrated"})
    assert {model.name.endswith(PROTECTION) for model, *_ in built} == {False, True}
    for model, varmap, families, costs in built:
        assert model.objective != costs  # the tie-break stages replaced it
        for view, ids in ((varmap.mpls_objective, [*families["beta"].values(),
                                                   *families["delta"].values()]),
                          (varmap.optical_objective, list(families["lam"].values()))):
            assert dict(view.items()) == {vid: costs[vid] for vid in ids}
            assert list(view) == ids and list(view.values()) == [costs[vid] for vid in ids]
            for vid in (-1, len(costs), "x", None, 1.5):
                assert vid not in view
                with pytest.raises(KeyError):
                    view[vid]
    if approach is Approach.SEQUENTIAL:
        # the exclusions fixed some columns of a protection block to 0
        assert any(0.0 in model.upper for model, *_ in built)


@pytest.mark.parametrize("topo", [
    PhysicalTopology(nodes=[3, 0, 1, 2], links=[(2, 0), (1, 2)]),
    generate_topology(5, 2.5, seed=7), generate_topology(7, 3.4, seed=2),
    generate_topology(12, 4, seed=11)], ids=["path-and-isolated-node", "5", "7", "12"])
def test_arc_positions_follow_the_neighbours(topo):
    """The flow-row positions that ``_arc_positions`` derives from the link
    order are those of each node's arcs in ``arcs()``, by ascending
    neighbour: out to the neighbour, then back from it."""
    arcs = topo.arcs()
    assert _arc_positions(topo) == {
        v: [arcs.index(arc) for m in topo.neighbors(v) for arc in ((v, m), (m, v))]
        for v in sorted(topo.nodes)}
