"""Tests for RoadNetwork, graph generators and adjacency normalizations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import graph
from repro.graph import RoadNetwork


class TestRoadNetwork:
    def test_basic_counts(self):
        net = RoadNetwork(4, [(0, 1), (1, 2), (2, 3)])
        assert net.num_nodes == 4
        assert net.num_edges == 3

    def test_degree(self):
        net = RoadNetwork(4, [(0, 1), (1, 2), (2, 3)])
        assert list(net.degree()) == [1, 2, 2, 1]

    def test_adjacency_symmetric(self):
        net = RoadNetwork(3, [(0, 1, 2.0), (1, 2)])
        adj = net.adjacency_matrix()
        assert np.allclose(adj, adj.T)
        assert adj[0, 1] == 2.0
        assert adj[1, 2] == 1.0

    def test_unweighted_adjacency(self):
        net = RoadNetwork(3, [(0, 1, 5.0)])
        assert net.adjacency_matrix(weighted=False)[0, 1] == 1.0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            RoadNetwork(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            RoadNetwork(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RoadNetwork(3, [(0, 5)])

    def test_rejects_bad_tuple(self):
        with pytest.raises(ValueError):
            RoadNetwork(3, [(0,)])

    def test_neighbors(self):
        net = RoadNetwork(4, [(0, 1), (0, 2), (2, 3)])
        assert net.neighbors(0) == [1, 2]
        assert net.neighbors(3) == [2]

    def test_is_connected(self):
        assert RoadNetwork(3, [(0, 1), (1, 2)]).is_connected()
        assert not RoadNetwork(3, [(0, 1)]).is_connected()

    def test_shortest_path_hops(self):
        net = RoadNetwork(4, [(0, 1), (1, 2), (2, 3)])
        hops = net.shortest_path_hops()
        assert hops[0, 3] == 3
        assert hops[0, 0] == 0

    def test_shortest_path_disconnected_is_inf(self):
        net = RoadNetwork(3, [(0, 1)])
        assert np.isinf(net.shortest_path_hops()[0, 2])

    def test_from_adjacency_roundtrip(self):
        original = RoadNetwork(4, [(0, 1), (1, 2, 3.0), (2, 3)])
        rebuilt = RoadNetwork.from_adjacency(original.adjacency_matrix())
        assert rebuilt.num_edges == original.num_edges
        assert np.allclose(rebuilt.adjacency_matrix(), original.adjacency_matrix())

    def test_from_adjacency_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            RoadNetwork.from_adjacency(np.ones((2, 3)))

    def test_to_networkx(self):
        net = RoadNetwork(3, [(0, 1), (1, 2)])
        g = net.to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 2


class TestGenerators:
    def test_ring(self):
        net = graph.ring_network(10)
        assert net.num_edges == 10
        assert np.all(net.degree() == 2)

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            graph.ring_network(2)

    def test_grid(self):
        net = graph.grid_network(3, 4)
        assert net.num_nodes == 12
        assert net.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert net.is_connected()

    def test_corridor_connected(self):
        net = graph.corridor_network(20, num_corridors=3, rng=np.random.default_rng(0))
        assert net.num_nodes == 20
        assert net.is_connected()

    def test_corridor_invalid(self):
        with pytest.raises(ValueError):
            graph.corridor_network(3, num_corridors=2)

    @pytest.mark.parametrize(
        "nodes,edges",
        [(358, 547), (307, 340), (883, 866), (170, 295)],
    )
    def test_pems_like_matches_table1_statistics(self, nodes, edges):
        net = graph.pems_like_network(nodes, edges, seed=1)
        assert net.num_nodes == nodes
        assert net.num_edges == edges

    def test_pems_like_small(self):
        net = graph.pems_like_network(20, 28, seed=0)
        assert net.num_nodes == 20
        assert net.num_edges == 28

    def test_pems_like_reproducible(self):
        a = graph.pems_like_network(40, 55, seed=7)
        b = graph.pems_like_network(40, 55, seed=7)
        assert a.edges == b.edges

    def test_pems_like_rejects_tiny_edge_budget(self):
        with pytest.raises(ValueError):
            graph.pems_like_network(100, 10)

    def test_pems_like_rejects_budget_above_complete_graph(self):
        # 10 nodes have at most 45 edges; 46 used to spin forever.
        assert graph.pems_like_network(10, 45, seed=0).num_edges == 45
        with pytest.raises(ValueError, match="exceeds the 45 edges"):
            graph.pems_like_network(10, 46, seed=0)

    @given(
        nodes=st.integers(min_value=10, max_value=80),
        extra=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_pems_like_edge_budget_property(self, nodes, extra, seed):
        edges = nodes - 1 + extra
        assume(edges <= nodes * (nodes - 1) // 2)  # larger budgets raise (tested above)
        net = graph.pems_like_network(nodes, edges, seed=seed)
        assert net.num_nodes == nodes
        assert net.num_edges == edges
        # Road networks stay hub-free: the maximum degree should stay within a
        # small multiple of the average degree (2 * edges / nodes).
        average_degree = 2.0 * edges / nodes
        assert net.degree().max() <= max(6.0, 4.0 * average_degree)


class TestAdjacencyNormalizations:
    def _net(self):
        return graph.grid_network(3, 3)

    def test_symmetric_normalization_eigenvalues(self):
        adj = self._net().adjacency_matrix()
        sym = graph.symmetric_normalized_adjacency(adj)
        eigenvalues = np.linalg.eigvalsh(sym)
        assert eigenvalues.max() <= 1.0 + 1e-9
        assert eigenvalues.min() >= -1.0 - 1e-9

    def test_gcn_support_is_identity_plus_norm(self):
        adj = self._net().adjacency_matrix()
        support = graph.gcn_support(adj)
        assert np.allclose(support, np.eye(9) + graph.symmetric_normalized_adjacency(adj))

    def test_normalized_laplacian_psd(self):
        adj = self._net().adjacency_matrix()
        lap = graph.normalized_laplacian(adj)
        assert np.linalg.eigvalsh(lap).min() >= -1e-9

    def test_scaled_laplacian_spectrum_in_unit_interval(self):
        adj = self._net().adjacency_matrix()
        scaled = graph.scaled_laplacian(adj)
        eigenvalues = np.linalg.eigvalsh(scaled)
        assert eigenvalues.max() <= 1.0 + 1e-9
        assert eigenvalues.min() >= -1.0 - 1e-9

    def test_random_walk_rows_sum_to_one(self):
        adj = self._net().adjacency_matrix()
        walk = graph.random_walk_matrix(adj)
        assert np.allclose(walk.sum(axis=1), 1.0)

    def test_random_walk_isolated_node_row_is_zero(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        walk = graph.random_walk_matrix(adj)
        assert np.allclose(walk[2], 0.0)

    def test_chebyshev_polynomials_recurrence(self):
        adj = self._net().adjacency_matrix()
        polys = graph.chebyshev_polynomials(adj, order=4)
        assert len(polys) == 4
        assert np.allclose(polys[0], np.eye(9))
        scaled = graph.scaled_laplacian(adj)
        assert np.allclose(polys[3], 2.0 * scaled @ polys[2] - polys[1])

    def test_chebyshev_invalid_order(self):
        with pytest.raises(ValueError):
            graph.chebyshev_polynomials(np.eye(3), order=0)

    def test_diffusion_supports(self):
        adj = self._net().adjacency_matrix()
        forward, backward = graph.diffusion_supports(adj)
        assert np.allclose(forward.sum(axis=1), 1.0)
        assert np.allclose(backward.sum(axis=1), 1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            graph.symmetric_normalized_adjacency(-np.eye(3))

    def test_gaussian_kernel_adjacency(self):
        distances = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        adj = graph.gaussian_kernel_adjacency(distances, threshold=0.05)
        assert adj[0, 1] > adj[0, 2]
        assert np.allclose(np.diag(adj), 0.0)

    def test_gaussian_kernel_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            graph.gaussian_kernel_adjacency(np.ones((2, 3)))
