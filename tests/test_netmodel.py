from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otnplan.netmodel import (COST_RATIO_PRESETS, CostRatios, PhysicalTopology,
                              SystemParams, articulation_points,
                              average_connectivity, derive_unit_costs,
                              generate_topology, split_demands, validate_topology)


def _component_count(nodes, links) -> int:
    """Connected components by plain search, independent of netmodel."""
    adj = {n: set() for n in nodes}
    for a, b in links:
        adj[a].add(b)
        adj[b].add(a)
    seen: set = set()
    count = 0
    for root in nodes:
        if root in seen:
            continue
        count += 1
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def _cut_nodes_by_search(nodes, links) -> set:
    """Articulation nodes by node removal: those whose removal leaves more
    components than the graph has."""
    whole = _component_count(nodes, links)
    return {x for x in nodes
            if _component_count([n for n in nodes if n != x],
                                [l for l in links if x not in l]) > whole}


class TestValidateTopology:
    def test_ring_is_biconnected(self):
        topo = PhysicalTopology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        report = validate_topology(topo)
        assert report.ok and not report.violations

    def test_path_graph_has_articulation_node(self):
        topo = PhysicalTopology(range(3), [(0, 1), (1, 2)])
        report = validate_topology(topo)
        assert not report.ok
        assert any("not bi-connected" in v for v in report.violations)
        assert articulation_points(topo) == (1,)

    def test_parallel_links_reported(self):
        with pytest.raises(ValueError, match=r"link \(0,1\) is declared more than once"):
            PhysicalTopology(range(2), [(0, 1), (1, 0)])

    def test_self_loop_and_unknown_node(self):
        for link in ((0, 0), (1, 5)):
            with pytest.raises(ValueError, match=rf"link \({link[0]},{link[1]}\) must join"):
                PhysicalTopology(range(3), [link])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.sampled_from(
            [(a, b) for a in range(n) for b in range(a + 1, n)])))))
    def test_graph_answers_match_node_removal_search(self, case):
        n, links = case
        topo = PhysicalTopology(range(n), sorted(links))
        cuts = _cut_nodes_by_search(topo.nodes, topo.links)
        assert set(articulation_points(topo)) == cuts
        connected = _component_count(topo.nodes, topo.links) == 1
        assert validate_topology(topo).ok == (connected and not cuts)


class TestAverageConnectivity:
    def test_paper_test_network_shape(self):
        topo = generate_topology(12, 4, seed=1)
        assert len(topo.links) == 24
        assert average_connectivity(topo) == 4

    def test_ring(self):
        topo = PhysicalTopology(range(7), [(i, (i + 1) % 7) for i in range(7)])
        assert average_connectivity(topo) == 2

    def test_full_mesh_12(self):
        links = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        topo = PhysicalTopology(range(12), links)
        assert len(links) == 66
        assert average_connectivity(topo) == 11


class TestGenerateTopology:
    def test_ring_at_connectivity_two(self):
        topo = generate_topology(12, 2, seed=3)
        assert len(topo.links) == 12
        assert validate_topology(topo).ok

    def test_full_mesh_at_max_connectivity(self):
        topo = generate_topology(12, 11, seed=3)
        assert len(topo.links) == 66

    def test_seed7_instance_biconnected_by_search(self):
        topo = generate_topology(12, 4, seed=7)
        assert len(topo.links) == 24
        assert _component_count(topo.nodes, topo.links) == 1
        assert not _cut_nodes_by_search(topo.nodes, topo.links)

    def test_deterministic_for_seed(self):
        a = generate_topology(9, 3, seed=17)
        b = generate_topology(9, 3, seed=17)
        assert a.links == b.links

    def test_nested_across_connectivity(self):
        low = generate_topology(8, 2, seed=5)
        mid = generate_topology(8, 4, seed=5)
        high = generate_topology(8, 7, seed=5)
        assert set(low.links) <= set(mid.links) <= set(high.links)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            generate_topology(6, 1.5, seed=0)
        with pytest.raises(ValueError):
            generate_topology(6, 6, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 10), seed=st.integers(0, 10 ** 6), d_half=st.integers(4, 12))
    def test_generated_validates_and_hits_connectivity(self, n, seed, d_half):
        dbar = d_half / 2
        if dbar > n - 1:
            dbar = n - 1
        topo = generate_topology(n, dbar, seed)
        assert validate_topology(topo).ok
        assert abs(float(average_connectivity(topo)) - dbar) <= 1 / n + 1e-9


class TestUnitCosts:
    @pytest.mark.parametrize("label,lp,wl,tt", [
        ("CR1", 17, 3, Fraction(8, 10)),
        ("CR2", 3, 18, Fraction(5, 100)),
        ("CR3", 18, 17, Fraction(1, 10)),
    ])
    def test_preset_values(self, label, lp, wl, tt):
        uc = derive_unit_costs(COST_RATIO_PRESETS[label], 10)
        assert uc.c_lp == lp
        assert uc.c_wl == wl
        assert uc.c_tt == tt

    def test_pure_function_bit_exact(self):
        ratios = CostRatios("2.5", "7", "0.5")
        a = derive_unit_costs(ratios, 10)
        b = derive_unit_costs(ratios, 10)
        assert (a.c_lp, a.c_wl, a.c_tt) == (b.c_lp, b.c_wl, b.c_tt)
        assert a.c_lp == 2 * (ratios.c_p_ip + ratios.c_p_oxc)
        assert a.c_wl == 2 * (ratios.c_p_oxc + ratios.c_tr)
        assert a.c_tt == ratios.c_p_ip / 10


class TestSplitDemands:
    def test_under_capacity_passthrough(self):
        (lsp,) = split_demands([(0, 1, 8)], 10)
        assert lsp.bandwidth == 8

    def test_ceiling_split_equal_parts(self):
        parts = split_demands([(0, 1, 15)], 10)
        assert [p.bandwidth for p in parts] == [Fraction(15, 2)] * 2

    def test_exact_multiple(self):
        parts = split_demands([(0, 1, 30)], 10)
        assert [p.bandwidth for p in parts] == [10, 10, 10]

    def test_ids_sequential(self):
        parts = split_demands([(0, 1, 15), (1, 2, 4)], 10)
        assert [p.id for p in parts] == [0, 1, 2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(6, 9),
                              st.integers(1, 600)), min_size=1, max_size=8))
    def test_conserves_bandwidth_exactly(self, raw):
        demands = [(s, d, Fraction(b, 10)) for s, d, b in raw]
        parts = split_demands(demands, 10)
        assert sum(p.bandwidth for p in parts) == sum(b for _, _, b in demands)
        assert all(p.bandwidth <= 10 for p in parts)


class TestSystemParams:
    def test_default_interface_budget(self):
        params = SystemParams(C=10, Q=2, n_nodes=12)
        assert params.T == 44

    def test_q_domain(self):
        with pytest.raises(ValueError):
            SystemParams(C=10, Q=3, n_nodes=4)

    def test_wavelengths_must_be_positive(self):
        with pytest.raises(ValueError, match="W must be positive"):
            PhysicalTopology(range(2), [(0, 1)], W=0)
